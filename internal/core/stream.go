package core

import (
	"errors"
	"fmt"

	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/segment"
)

// StreamReconstructor runs the reconstruction framework incrementally,
// one frame at a time — the "adversary as live call participant"
// scenario: no full recording is needed, and a partial reconstruction is
// available at any instant of the call.
//
// Differences from the batch Reconstruct (both documented, both
// faithful to an online adversary; see DESIGN.md §10):
//
//   - Known-image identification happens after IdentifyAfter frames;
//     earlier frames are buffered (bounded) and reprocessed once the
//     virtual background is pinned. Calls shorter than the window must
//     call Finalize at end-of-call, which pins with the scores
//     accumulated so far and flushes the buffer.
//   - Unknown-image derivation is online: a pixel joins the derived VB
//     as soon as it has been stable for the threshold, so early frames
//     see a sparser VB mask than the batch pass would. As in the batch
//     path, locally derived pixels take precedence over Options.
//     AuxDerived seeds ("earlier arguments win, local first").
//   - The statistical color refinement uses the color histogram
//     accumulated so far rather than the whole call's.
//
// Each frame runs the batch path's frameKernel (DESIGN.md §14): all
// per-frame masks live in stream-owned scratch, the leaked-background
// residue is applied through tiled planes that skip idle bands, and
// with a cooperating segmenter a frame at steady state allocates
// nothing.
//
// A StreamReconstructor is not safe for concurrent use; the session
// layer (internal/session) serialises access for live multiplexing.
type StreamReconstructor struct {
	opts Options
	w, h int

	// Known-image identification state.
	identified bool
	scores     map[string]int
	vbImage    *imagex.Image
	vbName     string
	// Buffered early frames awaiting identification. The stream takes
	// ownership of the fed frame and oracle (no clones); Feed documents
	// that callers must not mutate them afterwards.
	pending        []*imagex.Image
	pendingOracles []*imagex.Mask

	// Online unknown-image derivation state. derived is the effective
	// virtual image used for masking: AuxDerived seeds overlaid by the
	// local derivation. localKnown marks pixels the local derivation
	// committed — only those are barred from re-derivation, so a locally
	// stable pixel always overrides an aux seed (matching the batch
	// path's "local first" merge precedence). runLen saturates at
	// maxRunLen (uint16, 2 bytes/pixel — derivation state is 4× smaller
	// than the historical []int); derivedCount tracks the popcount of
	// derived.Known incrementally so DerivedCoverage costs no full-mask
	// scan per frame.
	derived      *DerivedImage
	localKnown   *imagex.Mask
	runLen       []uint16
	prev         *imagex.Image
	derivedCount int

	// Color-refinement running histogram.
	hist      []int
	histTotal int

	// Accumulated output.
	rec       *Reconstruction
	frames    int
	finalized bool

	// Per-frame scratch, built lazily on the first processed frame
	// (ensureScratch): the frame kernel with its VBM/BBM, the VCM that
	// each frame's LB overwrites, and lbDirty/covFull, the per-band tile
	// states behind the fused residue pass.
	kern    *frameKernel
	vcm     *imagex.Mask
	intoSeg segment.IntoSegmenter
	lbDirty []bool
	covFull []bool

	// Cached options fingerprint; the dictionary hash is not cheap and
	// the session layer checkpoints periodically (0 until first use).
	fprint uint64
}

// DefaultIdentifyAfter is the number of frames the streaming attacker
// observes before pinning the known virtual background.
const DefaultIdentifyAfter = 10

// maxRunLen is the saturation ceiling of the uint16 stability counters.
// A saturated pixel stays at the ceiling while its run continues and
// resets to 1 on any change, so commit decisions are unaffected for any
// StabilityThreshold ≤ maxRunLen (normalizeStreamOptions rejects
// larger). Checkpoints store the counters at the same width.
const maxRunLen = 0xFFFF

// ErrFinalized is returned by Feed after Finalize.
var ErrFinalized = errors.New("core: stream already finalized")

// Frame pairs one fed frame with its oracle silhouette: the element of
// the session and fleet batch intake (a single frame is a batch of one).
type Frame struct {
	Img    *imagex.Image
	Oracle *imagex.Mask
}

// NewStream creates a streaming reconstructor for frames of the given
// geometry. Only VBKnownImage and VBUnknownImage are streamable (video
// loop detection fundamentally needs several repetitions; use the batch
// Reconstruct for virtual videos).
func NewStream(w, h int, opts Options) (*StreamReconstructor, error) {
	opts, err := normalizeStreamOptions(w, h, opts)
	if err != nil {
		return nil, err
	}
	s := &StreamReconstructor{
		opts:   opts,
		w:      w,
		h:      h,
		scores: map[string]int{},
		rec: &Reconstruction{
			Recovered: imagex.New(w, h),
			Coverage:  imagex.NewMask(w, h),
			VBMode:    opts.Mode,
		},
	}
	if opts.Mode == VBUnknownImage {
		s.derived = &DerivedImage{Img: imagex.New(w, h), Known: imagex.NewMask(w, h)}
		s.localKnown = imagex.NewMask(w, h)
		if len(opts.AuxDerived) > 0 {
			merged, err := MergeDerived(append([]*DerivedImage{s.derived}, opts.AuxDerived...)...)
			if err != nil {
				return nil, err
			}
			s.derived = merged
		}
		s.derivedCount = s.derived.Known.Count()
		s.runLen = make([]uint16, w*h)
		for i := range s.runLen {
			s.runLen[i] = 1
		}
	}
	return s, nil
}

// normalizeStreamOptions validates streaming geometry and options and
// fills in the defaults (withDefaults). NewStream and ResumeStream share
// it so a checkpointed stream and its resumption see identical effective
// options (the fingerprint is computed over the normalized form).
func normalizeStreamOptions(w, h int, opts Options) (Options, error) {
	if w <= 0 || h <= 0 {
		return opts, fmt.Errorf("core: stream geometry %dx%d", w, h)
	}
	if opts.Segmenter == nil {
		return opts, errors.New("core: nil segmenter")
	}
	switch opts.Mode {
	case VBKnownImage:
		if len(opts.KnownImages) == 0 {
			return opts, ErrNoCandidates
		}
	case VBUnknownImage:
	default:
		return opts, fmt.Errorf("core: mode %v is not streamable", opts.Mode)
	}
	opts = withDefaults(opts)
	if opts.StabilityThreshold > maxRunLen {
		return opts, fmt.Errorf("core: stability threshold %d exceeds the run-counter ceiling %d",
			opts.StabilityThreshold, maxRunLen)
	}
	return opts, nil
}

// Frames returns the number of frames fed so far.
func (s *StreamReconstructor) Frames() int { return s.frames }

// Size returns the stream's frame geometry. The session layer's
// quality gate needs it to screen frames without poking the pipeline.
func (s *StreamReconstructor) Size() (w, h int) { return s.w, s.h }

// Identified reports whether known-image identification has pinned a
// virtual background (always false in VBUnknownImage mode).
func (s *StreamReconstructor) Identified() bool { return s.identified }

// MemFootprint estimates the bytes of mutable state this stream holds
// over its lifetime: the accumulated reconstruction, the per-frame
// scratch masks, the (bounded) pending identification window, the
// unknown-mode derivation state, and the pinned VB. The session layer's
// fleet admission control sums these estimates against its global
// memory budget. The figure is an estimate from geometry and element
// counts, not an allocator measurement. Bounded state (the
// identification buffer, the scratch) is charged up front, so the
// figure does not grow with the frames fed and admission decisions hold
// for the session's whole life.
func (s *StreamReconstructor) MemFootprint() uint64 {
	px := uint64(s.w) * uint64(s.h)
	imgBytes := px * 3 // imagex.RGB is 3 bytes/pixel
	maskBytes := uint64(imagex.MaskWordBytes(s.w, s.h))
	n := imgBytes + maskBytes // rec.Recovered + rec.Coverage
	n += 3 * maskBytes        // VBM + BBM + VCM scratch
	if s.opts.Mode == VBKnownImage && !s.identified {
		// The pre-pin buffer is bounded by the identification window;
		// charge it whole so pinning never retroactively invalidates the
		// admission decision.
		n += uint64(s.opts.IdentifyAfter) * (imgBytes + maskBytes)
	}
	if s.vbImage != nil {
		n += imgBytes
	}
	if s.derived != nil {
		n += imgBytes + 2*maskBytes // derived image + Known + localKnown
		n += px * 2                 // uint16 per-pixel run lengths
		n += imgBytes               // prev-frame buffer (allocated on first feed)
	}
	if s.hist != nil {
		n += uint64(len(s.hist)) * 8
	}
	return n
}

// Finalized reports whether Finalize has been called.
func (s *StreamReconstructor) Finalized() bool { return s.finalized }

// Feed processes one frame. oracle is the true silhouette consumed by
// the simulated segmenter (see Reconstruct). Malformed frames return a
// recoverable *FrameError (see RecoverableFrame): the frame is skipped,
// the stream state is untouched, and feeding can continue. Feed returns
// ErrFinalized — fatal, not a FrameError — after Finalize.
//
// The stream takes ownership of the frame and oracle for the duration
// of the call and, in VBKnownImage mode before identification pins, for
// as long as they sit in the pending window: callers must not mutate
// them after feeding (the session layer documents the same contract).
// Nothing is retained past the frame's processing otherwise.
func (s *StreamReconstructor) Feed(frame *imagex.Image, oracle *imagex.Mask) error {
	if s.finalized {
		return ErrFinalized
	}
	if frame == nil {
		return frameErr(FaultNilFrame, errors.New("core: stream: nil frame"))
	}
	if frame.W != s.w || frame.H != s.h {
		return frameErr(FaultGeometry,
			fmt.Errorf("core: stream frame geometry %dx%d for %dx%d stream: %w",
				frame.W, frame.H, s.w, s.h, imagex.ErrBounds))
	}
	if oracle == nil {
		return frameErr(FaultNilOracle, errors.New("core: stream: nil oracle mask"))
	}
	if oracle.W != s.w || oracle.H != s.h {
		return frameErr(FaultOracleGeometry,
			fmt.Errorf("core: stream oracle geometry %dx%d for %dx%d frames: %w",
				oracle.W, oracle.H, s.w, s.h, imagex.ErrBounds))
	}
	s.frames++

	if s.opts.Mode == VBKnownImage && !s.identified {
		s.accumulateScores(frame)
		if s.pending == nil {
			s.pending = make([]*imagex.Image, 0, s.opts.IdentifyAfter)
			s.pendingOracles = make([]*imagex.Mask, 0, s.opts.IdentifyAfter)
		}
		s.pending = append(s.pending, frame)
		s.pendingOracles = append(s.pendingOracles, oracle)
		if s.frames >= s.opts.IdentifyAfter {
			s.pinAndFlush()
		}
		return nil
	}

	if s.opts.Mode == VBUnknownImage {
		s.updateDerivation(frame)
	}
	s.processFrame(frame, oracle)
	return nil
}

// Finalize marks end-of-call: if known-image identification is still
// pending (the call ended inside the IdentifyAfter window), it pins the
// best candidate using the scores accumulated so far and flushes the
// buffered frames through the pipeline. Finalize is idempotent; Feed
// returns ErrFinalized afterwards. A finalized Snapshot of a short call
// therefore contains every fed frame instead of silently dropping the
// unidentified prefix.
func (s *StreamReconstructor) Finalize() error {
	if s.finalized {
		return nil
	}
	s.finalized = true
	if s.opts.Mode == VBKnownImage && !s.identified && s.frames > 0 {
		s.pinAndFlush()
	}
	return nil
}

// pinAndFlush commits identification and reprocesses the buffered
// prefix with the pinned VB.
func (s *StreamReconstructor) pinAndFlush() {
	s.pinIdentification()
	for i, f := range s.pending {
		s.processFrame(f, s.pendingOracles[i])
	}
	s.pending, s.pendingOracles = nil, nil
}

// accumulateScores advances the highest-likelihood estimator.
func (s *StreamReconstructor) accumulateScores(frame *imagex.Image) {
	for name, img := range s.opts.KnownImages {
		s.scores[name] += frame.MatchCount(img)
	}
}

// pinIdentification commits the best-scoring candidate.
func (s *StreamReconstructor) pinIdentification() {
	bestName, bestScore := "", -1
	for _, name := range sortedKeys(s.opts.KnownImages) {
		if sc := s.scores[name]; sc > bestScore {
			bestName, bestScore = name, sc
		}
	}
	s.identified = true
	s.vbName = bestName
	s.vbImage = s.opts.KnownImages[bestName]
	s.rec.VBName = bestName
}

// updateDerivation advances the online pixel-stability derivation.
// Local commits write through even where an AuxDerived seed already
// supplied a value: the batch path derives locally first and only fills
// the gaps from aux (MergeDerived, earlier-wins), so the stream must
// let local pixels override aux ones too.
//
// The stability compare is the batch derivation's: MatchMaskInto of the
// previous frame against this one, written into the kernel's VBM
// scratch (which processFrame overwrites right afterwards), then
// advanceRuns. Only the run-counter update is per pixel. DerivedCoverage
// is maintained from derivedCount instead of a full popcount per frame.
func (s *StreamReconstructor) updateDerivation(frame *imagex.Image) {
	if s.prev == nil {
		// First frame: nothing to compare yet. The clone is the one-time
		// allocation of the prev buffer; every later frame copies in place.
		s.prev = frame.Clone()
		s.rec.DerivedCoverage = s.derivedCoverage()
		return
	}
	s.ensureScratch()
	commits := imagex.MatchMaskInto(s.kern.vbm, s.prev, frame, s.opts.MatchTol)
	if n := advanceRuns(commits, s.localKnown, s.runLen, s.opts.StabilityThreshold); n > 0 {
		s.derivedCount += n - commits.Overlap(s.derived.Known)
		_ = s.localKnown.Union(commits) // same geometry by construction
		commitStable(s.derived, commits, frame)
	}
	_ = s.prev.CopyFrom(frame) // same geometry, validated by Feed
	s.rec.DerivedCoverage = s.derivedCoverage()
}

// derivedCoverage computes DerivedCoverage from the incremental
// popcount; it equals derived.Known.Fraction() bit for bit.
func (s *StreamReconstructor) derivedCoverage() float64 {
	return float64(s.derivedCount) / float64(s.w*s.h)
}

// ensureScratch builds the per-frame scratch on the first processed
// frame: the frame kernel, the VCM mask and the tile-band states —
// covFull is recomputed from the accumulated coverage, so a resumed
// stream starts with the correct saturation flags.
func (s *StreamReconstructor) ensureScratch() {
	if s.kern != nil {
		return
	}
	s.kern = newFrameKernel(s.w, s.h, s.opts)
	s.vcm = imagex.NewMask(s.w, s.h)
	s.intoSeg, _ = s.opts.Segmenter.(segment.IntoSegmenter)
	nb := imagex.Bands(s.h, lbTileRows)
	s.lbDirty = make([]bool, nb)
	s.covFull = make([]bool, nb)
	_ = imagex.BandFullness(s.rec.Coverage, lbTileRows, s.covFull) // sized above
}

// processFrame runs one frame through segment → colour refine → leak →
// applyLeak. With a cooperating segmenter every mask is stream-owned
// scratch and a frame allocates nothing.
func (s *StreamReconstructor) processFrame(frame *imagex.Image, oracle *imagex.Mask) {
	s.ensureScratch()
	var vcm *imagex.Mask
	if s.intoSeg != nil {
		vcm = s.intoSeg.SegmentInto(s.vcm, frame, oracle)
	} else {
		vcm = s.opts.Segmenter.Segment(frame, oracle)
	}
	if vcm.W != s.w || vcm.H != s.h {
		// A mis-sized segmenter output cannot hold the LB. Treat it as an
		// empty VCM: LB degenerates to the BBM complement.
		s.vcm.Clear()
		vcm = s.vcm
	}
	if s.opts.ColorRefine {
		s.refineColors(vcm, frame)
	}
	var known *imagex.Mask
	vb := s.vbImage
	if s.derived != nil {
		vb, known = s.derived.Img, s.derived.Known
	}
	s.kern.leak(vcm, frame, vb, known, s.lbDirty)
	s.rec.applyLeak(vcm, frame, s.lbDirty, s.covFull)
}

// refineColors is the colour refinement of one frame's VCM against the
// histogram accumulated so far, this frame included. The cut over the
// new total is known before the pass, so one counting pass flags the
// few pixels that could be dropped and only those are re-checked. The
// candidates go into the kernel's VBM scratch: updateDerivation is done
// with it before processFrame starts, and leak overwrites every word of
// it afterwards.
func (s *StreamReconstructor) refineColors(vcm *imagex.Mask, frame *imagex.Image) {
	if s.hist == nil {
		s.hist = make([]int, 4096)
	}
	s.histTotal += vcm.Count()
	cut := int(s.opts.ColorFreqThreshold * float64(s.histTotal))
	histQuant12(s.hist, frame, vcm, s.kern.vbm, cut)
	dropRareColors(vcm, frame, s.hist, cut, s.kern.vbm)
}

// Snapshot returns the reconstruction accumulated so far. The returned
// value shares storage with the stream; clone before mutating. In
// VBKnownImage mode, frames fed before identification pinned are not yet
// reflected — a call shorter than IdentifyAfter must Finalize first,
// otherwise the snapshot is empty (the pre-fix behaviour was to drop
// such calls silently).
func (s *StreamReconstructor) Snapshot() *Reconstruction { return s.rec }

// Derived returns the effective unknown-image derivation (AuxDerived
// seeds overlaid by local commits), or nil outside VBUnknownImage mode.
// The returned value shares storage with the stream; clone before
// mutating or before seeding another call's AuxDerived.
func (s *StreamReconstructor) Derived() *DerivedImage { return s.derived }
