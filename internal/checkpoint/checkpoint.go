// Package checkpoint defines the durable on-disk format for streaming
// reconstruction state (.bbck): a compact versioned binary container
// holding every piece of a core.StreamReconstructor's accumulated state
// that can change its future output — VB identification state (the
// pinned VB by name), the derived VB image, coverage and localKnown
// masks, the accumulated residue and the frame counter — so an
// interrupted live session can resume at any frame boundary with
// bit-identical output (DESIGN.md §11). The large sections are masked:
// they store only the pixels their mask marks, because every other
// entry is one a resumed stream can rebuild exactly.
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
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
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
const Version = 3

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
	// DerivedImg must be zero outside DerivedKnown. RunLen holds one
	// counter per pixel; only those outside LocalKnown are stored, and
	// Decode sets the others to 1.
	DerivedImg   *imagex.Image
	DerivedKnown *imagex.Mask
	LocalKnown   *imagex.Mask
	RunLen       []uint16
	Prev         *imagex.Image

	// Color-refinement running histogram (nil when never touched).
	Hist      []int
	HistTotal uint64

	// Accumulated residue. Recovered must be zero outside Coverage.
	Recovered *imagex.Image
	Coverage  *imagex.Mask
}

// Encode serialises the state into a .bbck container:
//
//	magic "BBCK" | u16 version | u16 reserved | u32 crc | payload
//
// with the CRC-32 (IEEE) covering the whole payload. All integers are
// little-endian; masks are packed-word encodings (imagex.AppendWords)
// and whole images raw RGB triples (imagex.AppendPix), both sized by
// the header dimensions. A masked image is its mask's words followed by
// the RGB triples of the mask's set pixels in row-major order
// (appendMasked); Encode fails on a non-zero pixel outside the mask
// rather than drop it.
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

	var err error
	if st.DerivedImg != nil {
		buf = append(buf, 1)
		buf = st.DerivedKnown.AppendWords(buf)
		if buf, err = appendMasked(buf, st.DerivedImg, st.DerivedKnown); err != nil {
			return nil, fmt.Errorf("checkpoint: encode derived image: %w", err)
		}
		buf = st.LocalKnown.AppendWords(buf)
		buf = appendRuns(buf, st.RunLen, st.LocalKnown)
		if st.Prev != nil {
			buf = imagex.AppendPix(buf, st.Prev.Pix)
		}
	} else {
		buf = append(buf, 0)
	}

	if st.Hist != nil {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(histEntries(st.Hist)))
		for bin, n := range st.Hist {
			if n != 0 {
				buf = binary.LittleEndian.AppendUint16(buf, uint16(bin))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
			}
		}
		buf = binary.LittleEndian.AppendUint64(buf, st.HistTotal)
	}

	buf = st.Coverage.AppendWords(buf)
	if buf, err = appendMasked(buf, st.Recovered, st.Coverage); err != nil {
		return nil, fmt.Errorf("checkpoint: encode residue: %w", err)
	}

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
	if !st.fits(st.Recovered, st.Coverage) {
		return errors.New("checkpoint: encode: accumulated residue geometry differs from the header")
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
		if !st.fits(st.DerivedImg, st.DerivedKnown) || !st.fits(nil, st.LocalKnown) ||
			(st.Prev != nil && !st.fits(st.Prev, nil)) {
			return errors.New("checkpoint: encode: derivation state geometry differs from the header")
		}
		if len(st.RunLen) != st.W*st.H {
			return fmt.Errorf("checkpoint: encode: %d run lengths for %d pixels", len(st.RunLen), st.W*st.H)
		}
	}
	if st.Hist != nil {
		if len(st.Hist) != histBins {
			return fmt.Errorf("checkpoint: encode: histogram has %d bins, want %d", len(st.Hist), histBins)
		}
		for bin, n := range st.Hist {
			if n < 0 {
				return fmt.Errorf("checkpoint: encode: histogram bin %d holds %d", bin, n)
			}
		}
	}
	return nil
}

// fits reports whether img and m (either may be nil) have the header
// geometry, which the masked sections index by.
func (st *State) fits(img *imagex.Image, m *imagex.Mask) bool {
	return (img == nil || (img.W == st.W && img.H == st.H && len(img.Pix) == st.W*st.H)) &&
		(m == nil || (m.W == st.W && m.H == st.H))
}

// histEntries returns the number of non-zero histogram bins, the
// entries the histogram section stores.
func histEntries(hist []int) int {
	n := 0
	for _, c := range hist {
		if c != 0 {
			n++
		}
	}
	return n
}

// eachRun walks m one mask word at a time and calls fn for each
// stretch of the word, in row-major pixel indices: [x, gap) unset, then
// [gap, end) set, either possibly empty. A full word is one call with
// x == gap, an empty word one call with gap == end. Bits past the row
// width are zero by the mask padding invariant; the min calls keep a
// word that broke it inside its row. fn returns false to stop the walk,
// and eachRun reports whether it ran to the end.
func eachRun(m *imagex.Mask, fn func(x, gap, end int) bool) bool {
	wpr := m.WordsPerRow()
	for y := 0; y < m.H; y++ {
		for wx := 0; wx < wpr; wx++ {
			lo, n := y*m.W+wx<<6, min(m.W-wx<<6, 64)
			word := m.Word(y, wx)
			for x := 0; x < n; {
				gap := min(x+bits.TrailingZeros64(word>>uint(x)), n)
				end := min(gap+bits.TrailingZeros64(^(word>>uint(gap))), n)
				if !fn(lo+x, lo+gap, lo+end) {
					return false
				}
				x = end
			}
		}
	}
	return true
}

// zeroRow is the comparand of the zero check on unmasked pixels.
var zeroRow [64]imagex.RGB

// appendMasked appends the RGB triples of img's pixels under m's set
// bits in row-major order, one mask word at a time (eachRun): a full
// word is one AppendPix, an empty word one 64-pixel zero compare. It
// fails on a non-zero pixel outside m, which a decoder would silently
// turn into zero.
func appendMasked(buf []byte, img *imagex.Image, m *imagex.Mask) ([]byte, error) {
	bad := -1
	if !eachRun(m, func(x, gap, end int) bool {
		if !bytes.Equal(imagex.PixBytes(img.Pix[x:gap]), imagex.PixBytes(zeroRow[:gap-x])) {
			bad = x
			return false
		}
		buf = imagex.AppendPix(buf, img.Pix[gap:end])
		return true
	}) {
		return nil, fmt.Errorf("non-zero pixel outside the mask in row %d, from column %d", bad/m.W, bad%m.W)
	}
	return buf, nil
}

// appendRuns appends, as u16, the run counters of the pixels outside
// known in row-major order. A counter under a set known bit can never
// reach a commit again (known only grows), so it is left out.
func appendRuns(buf []byte, runs []uint16, known *imagex.Mask) []byte {
	eachRun(known, func(x, gap, _ int) bool {
		for _, r := range runs[x:gap] {
			buf = binary.LittleEndian.AppendUint16(buf, r)
		}
		return true
	})
	return buf
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
		n += mw + 3*st.DerivedKnown.Count()           // derived image
		n += mw + 2*(st.W*st.H-st.LocalKnown.Count()) // run counters
		if st.Prev != nil {
			n += px
		}
	}
	if st.Hist != nil {
		n += 2 + 10*histEntries(st.Hist) + 8
	}
	return n + mw + 3*st.Coverage.Count() // accumulated residue
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
	// The reserved field lies outside the CRC, so it is checked here:
	// Encode writes zero and encode(decode(x)) == x must hold.
	if r := binary.LittleEndian.Uint16(data[6:]); r != 0 {
		return nil, fmt.Errorf("checkpoint: reserved header field %04x is not zero: %w", r, ErrBadCheckpoint)
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
		if st.DerivedKnown, st.DerivedImg, err = readMasked(d, st.W, st.H); err != nil {
			return nil, err
		}
		if st.LocalKnown, err = d.Mask(st.W, st.H); err != nil {
			return nil, err
		}
		if st.RunLen, err = readRuns(d, st.LocalKnown); err != nil {
			return nil, err
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
		if st.Hist, st.HistTotal, err = readHist(d); err != nil {
			return nil, err
		}
	}

	if st.Coverage, st.Recovered, err = readMasked(d, st.W, st.H); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes: %w", d.Remaining(), ErrBadCheckpoint)
	}
	return st, nil
}

// readMasked consumes a masked image (appendMasked's layout): the mask
// words, then the RGB triples of its set pixels. Every other pixel is
// zero. The triples are size-checked before the image is allocated.
func readMasked(d *binfmt.Reader, w, h int) (*imagex.Mask, *imagex.Image, error) {
	m, err := d.Mask(w, h)
	if err != nil {
		return nil, nil, err
	}
	b, err := d.Bytes(3 * m.Count())
	if err != nil {
		return nil, nil, err
	}
	img := imagex.New(w, h)
	eachRun(m, func(_, gap, end int) bool {
		imagex.DecodePix(img.Pix[gap:end], b)
		b = b[3*(end-gap):]
		return true
	})
	return m, img, nil
}

// readRuns consumes the u16 run counters of the pixels outside known
// (appendRuns' layout) and sets every other counter to 1, the value a
// new stream starts from.
func readRuns(d *binfmt.Reader, known *imagex.Mask) ([]uint16, error) {
	b, err := d.Bytes(2 * (known.Len() - known.Count()))
	if err != nil {
		return nil, err
	}
	runs := make([]uint16, known.Len())
	eachRun(known, func(x, gap, end int) bool {
		for i := x; i < gap; i++ {
			runs[i] = binary.LittleEndian.Uint16(b)
			b = b[2:]
		}
		for i := gap; i < end; i++ {
			runs[i] = 1
		}
		return true
	})
	return runs, nil
}

// readHist consumes the histogram section: a u16 entry count, strictly
// ascending (u16 bin, u64 count) entries with non-zero counts, and the
// u64 total. Out-of-range, zero, repeated and descending entries are
// rejected, so each histogram has one spelling.
func readHist(d *binfmt.Reader) ([]int, uint64, error) {
	n, err := d.U16()
	if err != nil {
		return nil, 0, err
	}
	if n > histBins {
		return nil, 0, fmt.Errorf("checkpoint: %d histogram entries for %d bins: %w", n, histBins, ErrBadCheckpoint)
	}
	if err := d.Need(10*int64(n) + 8); err != nil {
		return nil, 0, err
	}
	hist := make([]int, histBins)
	prev := -1
	for i := uint16(0); i < n; i++ {
		bin, _ := d.U16() // length pre-checked above
		c, _ := d.U64()
		switch {
		case int(bin) >= histBins:
			return nil, 0, fmt.Errorf("checkpoint: histogram bin %d out of range: %w", bin, ErrBadCheckpoint)
		case int(bin) <= prev:
			return nil, 0, fmt.Errorf("checkpoint: histogram bin %d after bin %d: %w", bin, prev, ErrBadCheckpoint)
		case c == 0 || c > math.MaxInt64:
			return nil, 0, fmt.Errorf("checkpoint: histogram bin %d holds %d: %w", bin, c, ErrBadCheckpoint)
		}
		hist[bin] = int(c)
		prev = int(bin)
	}
	total, _ := d.U64()
	return hist, total, nil
}
