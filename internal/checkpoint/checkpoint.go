// Package checkpoint defines the durable on-disk format for streaming
// reconstruction state (.bbck): a compact versioned binary container
// holding everything a core.StreamReconstructor accumulates — VB
// identification state (the pinned VB by name), the derived VB image,
// coverage and localKnown masks, the accumulated residue and the frame
// counter — so an interrupted live session can resume at any frame
// boundary with bit-identical output (DESIGN.md §11).
//
// The package is a dumb data layer: State is a plain carrier struct and
// Encode/Decode translate it to and from bytes. internal/core owns the
// mapping between State and a live StreamReconstructor, including the
// options fingerprint that guards against resuming under a different
// configuration.
//
// Decode is hardened the same way vidstream.DecodeWithLimits is: every
// variable-length section's advertised size is validated against the
// remaining input and the Limits byte budgets BEFORE the first
// allocation for it, so a crafted header cannot force a large
// allocation, and a whole-payload CRC is verified before any field is
// parsed.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"github.com/bgbuster/bgbuster/internal/binfmt"
	"github.com/bgbuster/bgbuster/internal/imagex"
)

// Magic identifies a .bbck checkpoint container.
const Magic = "BBCK"

// Version is the current format version. Decoders reject other
// versions: the format carries reconstruction state whose semantics are
// pinned to the core pipeline, so cross-version resume would silently
// diverge instead of being bit-identical (versioning rules: DESIGN.md
// §11).
const Version = 2

// histBins is the color-refinement histogram size (quant12 bins).
const histBins = 4096

// ErrBadCheckpoint is wrapped by every decode failure.
var ErrBadCheckpoint = errors.New("checkpoint: bad .bbck data")

// ErrVersion is wrapped by decode failures caused by a version skew
// specifically, so callers can distinguish "corrupt" from "written by a
// different build".
var ErrVersion = fmt.Errorf("unsupported version: %w", ErrBadCheckpoint)

// Flag bits of the header flags byte.
const (
	flagFinalized  = 1 << 0
	flagIdentified = 1 << 1
	flagHasPrev    = 1 << 2
	flagHasHist    = 1 << 3
)

// Limits bounds the resources Decode commits to a container before
// allocating, mirroring vidstream.DecodeLimits. Zero-valued fields fall
// back to the defaults.
type Limits struct {
	// MaxDim bounds frame width and height.
	MaxDim int
	// MaxPending bounds the buffered pre-identification frame count.
	MaxPending int
	// MaxScores bounds the identification score-table entry count.
	MaxScores int
	// MaxNameLen bounds every embedded string (VB names).
	MaxNameLen int
}

// DefaultLimits returns the budget Decode uses: dimensions up to 2^14,
// up to 4096 buffered frames, 2^16 score entries and 1 KiB names.
func DefaultLimits() Limits {
	return Limits{MaxDim: 1 << 14, MaxPending: 1 << 12, MaxScores: 1 << 16, MaxNameLen: 1 << 10}
}

func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MaxDim <= 0 {
		l.MaxDim = d.MaxDim
	}
	if l.MaxPending <= 0 {
		l.MaxPending = d.MaxPending
	}
	if l.MaxScores <= 0 {
		l.MaxScores = d.MaxScores
	}
	if l.MaxNameLen <= 0 {
		l.MaxNameLen = d.MaxNameLen
	}
	return l
}

// Score is one identification score-table entry. Entries are stored
// sorted by name so the encoding is canonical: encode(decode(b)) == b
// for every valid container.
type Score struct {
	Name  string
	Score int64
}

// State is the serializable snapshot of a streaming reconstruction.
// Which sections are meaningful depends on Mode (the core.VBMode
// value): known-image streams carry Scores, the pinned VB's name and
// the pre-identification buffer; unknown-image streams carry the online
// derivation state. The accumulated residue (Recovered + Coverage) is
// always present. Per-frame LB masks are deliberately NOT part of the
// format — they grow linearly with call length, against the whole point
// of compact durable checkpoints (see core.StreamReconstructor.
// Checkpoint for the contract).
type State struct {
	W, H   int
	Mode   int
	Frames uint64
	// Fingerprint is core's hash of every Options field that influences
	// the deterministic evolution of the stream; resume verifies it.
	Fingerprint uint64
	Finalized   bool

	// Known-image identification state. The pinned VB is stored by
	// name only: it is an entry of the known-image dictionary, which the
	// Fingerprint already binds, so core resolves it on resume.
	Identified bool
	VBName     string
	Scores     []Score
	// Pending is the buffered pre-identification prefix.
	PendingFrames  []*imagex.Image
	PendingOracles []*imagex.Mask

	// Unknown-image online derivation state (nil outside that mode).
	DerivedImg   *imagex.Image
	DerivedKnown *imagex.Mask
	LocalKnown   *imagex.Mask
	RunLen       []int
	Prev         *imagex.Image

	// Color-refinement running histogram (nil when never touched).
	Hist      []int
	HistTotal uint64

	// Accumulated residue.
	Recovered *imagex.Image
	Coverage  *imagex.Mask
}

// Encode serialises the state into a .bbck container:
//
//	magic "BBCK" | u16 version | u16 reserved | u32 crc | payload
//
// with the CRC-32 (IEEE) covering the whole payload. All integers are
// little-endian; masks are packed-word encodings (imagex.AppendWords)
// and images raw RGB triples (imagex.AppendPix), both sized by the
// header dimensions.
func Encode(st *State) ([]byte, error) {
	if err := st.validate(); err != nil {
		return nil, err
	}
	buf := make([]byte, 0, st.encodedSizeHint())
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	buf = binary.LittleEndian.AppendUint16(buf, 0)
	crcAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // CRC placeholder, patched below.

	payload := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(st.W))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(st.H))
	buf = binary.LittleEndian.AppendUint64(buf, st.Frames)
	buf = append(buf, byte(st.Mode))
	var flags byte
	if st.Finalized {
		flags |= flagFinalized
	}
	if st.Identified {
		flags |= flagIdentified
	}
	if st.Prev != nil {
		flags |= flagHasPrev
	}
	if st.Hist != nil {
		flags |= flagHasHist
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, st.Fingerprint)

	scores := append([]Score(nil), st.Scores...)
	sort.Slice(scores, func(i, j int) bool { return scores[i].Name < scores[j].Name })
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(scores)))
	for _, sc := range scores {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(sc.Name)))
		buf = append(buf, sc.Name...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(sc.Score))
	}
	if st.Identified {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(st.VBName)))
		buf = append(buf, st.VBName...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.PendingFrames)))
	for i, f := range st.PendingFrames {
		buf = imagex.AppendPix(buf, f.Pix)
		buf = st.PendingOracles[i].AppendWords(buf)
	}

	if st.DerivedImg != nil {
		buf = append(buf, 1)
		buf = imagex.AppendPix(buf, st.DerivedImg.Pix)
		buf = st.DerivedKnown.AppendWords(buf)
		buf = st.LocalKnown.AppendWords(buf)
		// The run counters are written as exact u32, the encoding the
		// format has always used; core keeps them as saturating uint16 in
		// memory and widens on write, so every container is unchanged.
		for _, r := range st.RunLen {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(r))
		}
		if st.Prev != nil {
			buf = imagex.AppendPix(buf, st.Prev.Pix)
		}
	} else {
		buf = append(buf, 0)
	}

	if st.Hist != nil {
		for _, h := range st.Hist {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(h))
		}
		buf = binary.LittleEndian.AppendUint64(buf, st.HistTotal)
	}

	buf = imagex.AppendPix(buf, st.Recovered.Pix)
	buf = st.Coverage.AppendWords(buf)

	binary.LittleEndian.PutUint32(buf[crcAt:], crc32.ChecksumIEEE(buf[payload:]))
	return buf, nil
}

// validate rejects states Encode cannot represent faithfully.
func (st *State) validate() error {
	if st.W <= 0 || st.H <= 0 || int64(st.W) > math.MaxUint32 || int64(st.H) > math.MaxUint32 {
		return fmt.Errorf("checkpoint: encode geometry %dx%d", st.W, st.H)
	}
	if st.Mode < 0 || st.Mode > 255 {
		return fmt.Errorf("checkpoint: encode mode %d out of range", st.Mode)
	}
	if st.Recovered == nil || st.Coverage == nil {
		return errors.New("checkpoint: encode: nil accumulated residue")
	}
	if len(st.PendingFrames) != len(st.PendingOracles) {
		return fmt.Errorf("checkpoint: encode: %d pending frames, %d oracles",
			len(st.PendingFrames), len(st.PendingOracles))
	}
	if len(st.VBName) > math.MaxUint16 {
		return fmt.Errorf("checkpoint: encode: VB name %d bytes", len(st.VBName))
	}
	for _, sc := range st.Scores {
		if len(sc.Name) > math.MaxUint16 {
			return fmt.Errorf("checkpoint: encode: score name %d bytes", len(sc.Name))
		}
	}
	if st.DerivedImg != nil {
		if st.DerivedKnown == nil || st.LocalKnown == nil {
			return errors.New("checkpoint: encode: derivation state incomplete")
		}
		if len(st.RunLen) != st.W*st.H {
			return fmt.Errorf("checkpoint: encode: %d run lengths for %d pixels", len(st.RunLen), st.W*st.H)
		}
		for _, r := range st.RunLen {
			if r < 0 || int64(r) > math.MaxUint32 {
				return fmt.Errorf("checkpoint: encode: run length %d out of u32 range", r)
			}
		}
	}
	if st.Hist != nil && len(st.Hist) != histBins {
		return fmt.Errorf("checkpoint: encode: histogram has %d bins, want %d", len(st.Hist), histBins)
	}
	return nil
}

// encodedSizeHint returns the exact length Encode produces for a
// validated state, so the encode buffer is allocated once.
func (st *State) encodedSizeHint() int {
	px, mw := 3*st.W*st.H, imagex.MaskWordBytes(st.W, st.H)
	n := len(Magic) + 2 + 2 + 4    // header
	n += 4 + 4 + 8 + 1 + 1 + 8 + 4 // geometry, frames, mode, flags, fingerprint, score count
	for _, sc := range st.Scores {
		n += 2 + len(sc.Name) + 8
	}
	if st.Identified {
		n += 2 + len(st.VBName)
	}
	n += 4 + len(st.PendingFrames)*(px+mw)
	n++ // derivation presence byte
	if st.DerivedImg != nil {
		n += px + 2*mw + 4*st.W*st.H
		if st.Prev != nil {
			n += px
		}
	}
	if st.Hist != nil {
		n += 8*histBins + 8
	}
	return n + px + mw // accumulated residue
}

// Decode parses a .bbck container under DefaultLimits.
func Decode(data []byte) (*State, error) {
	return DecodeWithLimits(data, DefaultLimits())
}

// DecodeWithLimits parses a .bbck container, rejecting (with an
// ErrBadCheckpoint-wrapped error, never a panic) malformed input, CRC
// mismatches, version skew, and any header whose advertised geometry or
// section sizes exceed the limits or the remaining input — checked
// before each section is allocated.
func DecodeWithLimits(data []byte, lim Limits) (*State, error) {
	lim = lim.withDefaults()
	if len(data) < len(Magic)+8 {
		return nil, fmt.Errorf("checkpoint: %d-byte input shorter than header: %w", len(data), ErrBadCheckpoint)
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("checkpoint: magic %q: %w", data[:len(Magic)], ErrBadCheckpoint)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != Version {
		return nil, fmt.Errorf("checkpoint: version %d, this build reads %d: %w", v, Version, ErrVersion)
	}
	wantCRC := binary.LittleEndian.Uint32(data[8:])
	payload := data[12:]
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("checkpoint: CRC %08x, header claims %08x: %w", got, wantCRC, ErrBadCheckpoint)
	}

	d := binfmt.NewReader(payload, ErrBadCheckpoint)
	st := &State{}
	w, err := d.U32()
	if err != nil {
		return nil, err
	}
	h, err := d.U32()
	if err != nil {
		return nil, err
	}
	if w == 0 || h == 0 || int64(w) > int64(lim.MaxDim) || int64(h) > int64(lim.MaxDim) {
		return nil, fmt.Errorf("checkpoint: implausible geometry %dx%d: %w", w, h, ErrBadCheckpoint)
	}
	st.W, st.H = int(w), int(h)
	if st.Frames, err = d.U64(); err != nil {
		return nil, err
	}
	mode, err := d.U8()
	if err != nil {
		return nil, err
	}
	st.Mode = int(mode)
	flags, err := d.U8()
	if err != nil {
		return nil, err
	}
	if flags&^(flagFinalized|flagIdentified|flagHasPrev|flagHasHist) != 0 {
		return nil, fmt.Errorf("checkpoint: unknown flag bits %02x: %w", flags, ErrBadCheckpoint)
	}
	st.Finalized = flags&flagFinalized != 0
	st.Identified = flags&flagIdentified != 0
	if st.Fingerprint, err = d.U64(); err != nil {
		return nil, err
	}

	nScores, err := d.U32()
	if err != nil {
		return nil, err
	}
	if int64(nScores) > int64(lim.MaxScores) {
		return nil, fmt.Errorf("checkpoint: %d score entries exceed budget %d: %w", nScores, lim.MaxScores, ErrBadCheckpoint)
	}
	// Every entry needs ≥ 10 bytes; reject the count against the
	// remaining input before allocating the table.
	if err := d.Need(10 * int64(nScores)); err != nil {
		return nil, err
	}
	st.Scores = make([]Score, 0, nScores)
	prevName := ""
	for i := uint32(0); i < nScores; i++ {
		name, err := d.Str(lim.MaxNameLen)
		if err != nil {
			return nil, err
		}
		if i > 0 && name <= prevName {
			return nil, fmt.Errorf("checkpoint: score table not strictly sorted at %q: %w", name, ErrBadCheckpoint)
		}
		prevName = name
		v, err := d.U64()
		if err != nil {
			return nil, err
		}
		st.Scores = append(st.Scores, Score{Name: name, Score: int64(v)})
	}
	if st.Identified {
		if st.VBName, err = d.Str(lim.MaxNameLen); err != nil {
			return nil, err
		}
	}
	nPending, err := d.U32()
	if err != nil {
		return nil, err
	}
	if int64(nPending) > int64(lim.MaxPending) {
		return nil, fmt.Errorf("checkpoint: %d pending frames exceed budget %d: %w", nPending, lim.MaxPending, ErrBadCheckpoint)
	}
	perPending := int64(3*st.W*st.H) + int64(imagex.MaskWordBytes(st.W, st.H))
	if err := d.Need(perPending * int64(nPending)); err != nil {
		return nil, err
	}
	st.PendingFrames = make([]*imagex.Image, 0, nPending)
	st.PendingOracles = make([]*imagex.Mask, 0, nPending)
	for i := uint32(0); i < nPending; i++ {
		f, err := d.Image(st.W, st.H)
		if err != nil {
			return nil, err
		}
		o, err := d.Mask(st.W, st.H)
		if err != nil {
			return nil, err
		}
		st.PendingFrames = append(st.PendingFrames, f)
		st.PendingOracles = append(st.PendingOracles, o)
	}

	hasDerived, err := d.U8()
	if err != nil {
		return nil, err
	}
	switch hasDerived {
	case 0:
	case 1:
		if st.DerivedImg, err = d.Image(st.W, st.H); err != nil {
			return nil, err
		}
		if st.DerivedKnown, err = d.Mask(st.W, st.H); err != nil {
			return nil, err
		}
		if st.LocalKnown, err = d.Mask(st.W, st.H); err != nil {
			return nil, err
		}
		if err := d.Need(4 * int64(st.W) * int64(st.H)); err != nil {
			return nil, err
		}
		st.RunLen = make([]int, st.W*st.H)
		for i := range st.RunLen {
			v, _ := d.U32() // length pre-checked above
			st.RunLen[i] = int(v)
		}
		if flags&flagHasPrev != 0 {
			if st.Prev, err = d.Image(st.W, st.H); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("checkpoint: derivation presence byte %d: %w", hasDerived, ErrBadCheckpoint)
	}
	if hasDerived == 0 && flags&flagHasPrev != 0 {
		return nil, fmt.Errorf("checkpoint: prev frame without derivation state: %w", ErrBadCheckpoint)
	}

	if flags&flagHasHist != 0 {
		if err := d.Need(8*histBins + 8); err != nil {
			return nil, err
		}
		st.Hist = make([]int, histBins)
		for i := range st.Hist {
			v, _ := d.U64()
			if v > math.MaxInt64 {
				return nil, fmt.Errorf("checkpoint: histogram bin %d overflows: %w", i, ErrBadCheckpoint)
			}
			st.Hist[i] = int(v)
		}
		st.HistTotal, _ = d.U64()
	}

	if st.Recovered, err = d.Image(st.W, st.H); err != nil {
		return nil, err
	}
	if st.Coverage, err = d.Mask(st.W, st.H); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes: %w", d.Remaining(), ErrBadCheckpoint)
	}
	return st, nil
}
