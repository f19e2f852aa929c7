package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"github.com/bgbuster/bgbuster/internal/checkpoint"
	"github.com/bgbuster/bgbuster/internal/imagex"
)

// ErrCheckpointMismatch is returned by ResumeStream when the checkpoint
// was written under options whose fingerprint differs from the ones
// supplied for the resumption: resuming under a different configuration
// would silently diverge from the uninterrupted run instead of being
// bit-identical, so it is rejected loudly.
var ErrCheckpointMismatch = errors.New("core: checkpoint options mismatch")

// Checkpoint serialises every part of the stream's accumulated state
// that can change its future output into a versioned .bbck container
// (internal/checkpoint, DESIGN.md §11). A reconstructor rebuilt from it
// with ResumeStream under the same options continues bit-identically to
// one that never stopped — at any frame boundary, including before
// known-image identification pins, exactly at the pin, and after
// Finalize.
//
// Options.Segmenter is deliberately outside the contract: a stateful
// segmenter (e.g. the seeded OfflineSegmenter) carries its own evolution
// that the caller must persist separately; with a stateless segmenter
// the bit-identical guarantee is unconditional. The LBFrames/LBBits
// counters are not persisted either; a resumed stream's count frames
// fed since the resume. Nor are the run counters of pixels already in
// localKnown: advanceRuns masks their commits and localKnown only
// grows, so they never reach an output again, and resume sets them to
// 1.
//
// Like every other method, Checkpoint is not safe for concurrent use
// with Feed; the session layer serialises access.
func (s *StreamReconstructor) Checkpoint() ([]byte, error) {
	st := &checkpoint.State{
		W:           s.w,
		H:           s.h,
		Mode:        int(s.opts.Mode),
		Frames:      uint64(s.frames),
		Fingerprint: s.fingerprint(),
		Finalized:   s.finalized,
		Identified:  s.identified,
		VBName:      s.vbName,
		Recovered:   s.rec.Recovered,
		Coverage:    s.rec.Coverage,
		HistTotal:   uint64(s.histTotal),
		Hist:        s.hist,
	}
	for name, sc := range s.scores {
		st.Scores = append(st.Scores, checkpoint.Score{Name: name, Score: int64(sc)})
	}
	st.PendingFrames = s.pending
	st.PendingOracles = s.pendingOracles
	if s.derived != nil {
		st.DerivedImg = s.derived.Img
		st.DerivedKnown = s.derived.Known
		st.LocalKnown = s.localKnown
		st.RunLen = s.runLen
		st.Prev = s.prev
	}
	data, err := checkpoint.Encode(st)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	return data, nil
}

// fingerprint returns the cached options fingerprint, computing it on
// first use. Options are immutable after construction, so the cache
// never goes stale; 0 is the "not yet computed" sentinel (a digest that
// happens to be 0 only costs a recomputation, never a wrong value).
func (s *StreamReconstructor) fingerprint() uint64 {
	if s.fprint == 0 {
		s.fprint = optionsFingerprint(s.w, s.h, s.opts)
	}
	return s.fprint
}

// ResumeStream rebuilds a streaming reconstructor from a Checkpoint
// under DefaultLimits. opts must describe the same configuration the
// checkpointed stream ran with — same mode, tolerances, dictionary and
// aux seeds; the embedded fingerprint is verified and a mismatch
// returns ErrCheckpointMismatch. The geometry comes from the
// checkpoint. AuxDerived seeds are NOT re-merged: the checkpointed
// derivation already contains them (merged at the original NewStream),
// so the resumed state uses it as-is.
func ResumeStream(data []byte, opts Options) (*StreamReconstructor, error) {
	return ResumeStreamWithLimits(data, opts, checkpoint.DefaultLimits())
}

// ResumeStreamWithLimits is ResumeStream with an explicit decode
// budget.
func ResumeStreamWithLimits(data []byte, opts Options, lim checkpoint.Limits) (*StreamReconstructor, error) {
	st, err := checkpoint.DecodeWithLimits(data, lim)
	if err != nil {
		return nil, fmt.Errorf("core: resume: %w", err)
	}
	opts, err = normalizeStreamOptions(st.W, st.H, opts)
	if err != nil {
		return nil, fmt.Errorf("core: resume: %w", err)
	}
	if VBMode(st.Mode) != opts.Mode {
		return nil, fmt.Errorf("core: resume: checkpointed mode %v, options say %v: %w",
			VBMode(st.Mode), opts.Mode, ErrCheckpointMismatch)
	}
	if got := optionsFingerprint(st.W, st.H, opts); got != st.Fingerprint {
		return nil, fmt.Errorf("core: resume: options fingerprint %016x, checkpoint was written under %016x: %w",
			got, st.Fingerprint, ErrCheckpointMismatch)
	}
	if err := validateResumeState(st, opts); err != nil {
		return nil, err
	}

	s := &StreamReconstructor{
		opts:       opts,
		w:          st.W,
		h:          st.H,
		fprint:     st.Fingerprint,
		identified: st.Identified,
		scores:     map[string]int{},
		vbName:     st.VBName,
		finalized:  st.Finalized,
		frames:     int(st.Frames),
		hist:       st.Hist,
		histTotal:  int(st.HistTotal),
		rec: &Reconstruction{
			Recovered: st.Recovered,
			Coverage:  st.Coverage,
			VBName:    st.VBName,
			VBMode:    opts.Mode,
		},
	}
	for _, sc := range st.Scores {
		s.scores[sc.Name] = int(sc.Score)
	}
	if st.Identified {
		// The checkpoint names the pinned VB; the fingerprint binds the
		// dictionary and validateResumeState has checked the name is in
		// it, so the resumed stream points at the shared image.
		s.vbImage = opts.KnownImages[st.VBName]
	}
	s.pending = st.PendingFrames
	s.pendingOracles = st.PendingOracles
	if opts.Mode == VBUnknownImage {
		s.derived = &DerivedImage{Img: st.DerivedImg, Known: st.DerivedKnown}
		s.localKnown = st.LocalKnown
		s.runLen = st.RunLen
		s.prev = st.Prev
		s.derivedCount = s.derived.Known.Count()
		s.rec.DerivedCoverage = s.derived.Coverage()
	}
	return s, nil
}

// validateResumeState rejects decoded states that are internally
// inconsistent for the mode — the decoder only enforces the wire
// format, so a crafted container could otherwise smuggle e.g. an
// unknown-image state with no derivation and crash the first Feed.
func validateResumeState(st *checkpoint.State, opts Options) error {
	if st.Frames > math.MaxInt32 {
		return fmt.Errorf("core: resume: frame counter %d implausible: %w", st.Frames, ErrCheckpointMismatch)
	}
	switch opts.Mode {
	case VBKnownImage:
		if st.DerivedImg != nil {
			return fmt.Errorf("core: resume: derivation state in known-image checkpoint: %w", ErrCheckpointMismatch)
		}
		if st.Identified && len(st.PendingFrames) > 0 {
			return fmt.Errorf("core: resume: %d buffered frames after identification pinned: %w",
				len(st.PendingFrames), ErrCheckpointMismatch)
		}
		if st.Identified {
			if _, ok := opts.KnownImages[st.VBName]; !ok {
				return fmt.Errorf("core: resume: pinned VB %q not in dictionary: %w", st.VBName, ErrCheckpointMismatch)
			}
		}
	case VBUnknownImage:
		if st.DerivedImg == nil {
			return fmt.Errorf("core: resume: unknown-image checkpoint without derivation state: %w", ErrCheckpointMismatch)
		}
		if st.Identified || len(st.PendingFrames) > 0 || len(st.Scores) > 0 {
			return fmt.Errorf("core: resume: identification state in unknown-image checkpoint: %w", ErrCheckpointMismatch)
		}
	}
	return nil
}

// optionsFingerprint hashes (FNV-64a) every Options field that
// influences the deterministic evolution of a stream at the given
// geometry: mode, tolerances, thresholds, the known-image dictionary
// (names and pixels) and the AuxDerived seeds. Excluded on purpose:
// Segmenter (external state, see Checkpoint), Workers (batch-only
// execution detail), and the batch-/video-only knobs (KnownVideos,
// MaxLoopPeriod). Computed over normalized options, so an explicit
// default and a zero value fingerprint identically.
func optionsFingerprint(w, h int, opts Options) uint64 {
	fp := fnv.New64a()
	u := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		fp.Write(b[:])
	}
	u(uint64(w))
	u(uint64(h))
	u(uint64(opts.Mode))
	u(uint64(int64(opts.MatchTol)))
	u(uint64(int64(opts.StabilityThreshold)))
	u(uint64(int64(opts.Phi)))
	u(uint64(int64(opts.IdentifyAfter)))
	if opts.ColorRefine {
		u(1)
	} else {
		u(0)
	}
	u(math.Float64bits(opts.ColorFreqThreshold))

	u(uint64(len(opts.KnownImages)))
	for _, name := range sortedKeys(opts.KnownImages) {
		fp.Write([]byte(name))
		fp.Write([]byte{0})
		fingerprintImage(fp, opts.KnownImages[name])
	}
	u(uint64(len(opts.AuxDerived)))
	for _, d := range opts.AuxDerived {
		fingerprintImage(fp, d.Img)
		fp.Write(d.Known.AppendWords(nil))
	}
	return fp.Sum64()
}

// fingerprintImage hashes the image's geometry and then its pixel
// raster, read in place through its byte view.
func fingerprintImage(fp hash.Hash64, img *imagex.Image) {
	var geom [16]byte
	binary.LittleEndian.PutUint64(geom[:], uint64(img.W))
	binary.LittleEndian.PutUint64(geom[8:], uint64(img.H))
	fp.Write(geom[:])
	fp.Write(imagex.PixBytes(img.Pix))
}
