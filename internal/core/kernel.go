package core

import "github.com/bgbuster/bgbuster/internal/imagex"

// lbTileRows is the tile band height (in rows) of the leak masks and the
// residue/coverage planes. Bands match the row-major word-packed mask
// layout, so a skipped band skips contiguous memory (DESIGN.md §14).
const lbTileRows = 8

// frameKernel is the per-frame masking stage of the paper's Figure 4:
// the VBM against the virtual background, its φ-dilation into the BBM,
// and the leaked-background mask LB = ¬(BBM ∪ VCM). The batch
// Reconstruct runs one per worker and the StreamReconstructor holds one;
// what differs between them (how the VB is found, how the VCM is
// refined) arrives as arguments. The kernel owns the dilation engine
// and the VBM/BBM scratch, so a frame allocates nothing. A frameKernel
// is not safe for concurrent use.
type frameKernel struct {
	tol      int
	dil      *imagex.Dilator
	vbm, bbm *imagex.Mask
}

// newFrameKernel builds a kernel for w×h frames under opts' MatchTol and
// Phi (already defaulted).
func newFrameKernel(w, h int, opts Options) *frameKernel {
	return &frameKernel{
		tol: opts.MatchTol,
		dil: imagex.NewDilator(w, h, opts.Phi),
		vbm: imagex.NewMask(w, h),
		bbm: imagex.NewMask(w, h),
	}
}

// leak overwrites vcm, which must have the frame's geometry, with the
// frame's LB. The VBM matches vb within the tolerance, only where known
// is set when known is non-nil. dirty, when non-nil, receives the LB's
// per-band occupancy for applyLeak.
func (k *frameKernel) leak(vcm *imagex.Mask, frame, vb *imagex.Image, known *imagex.Mask, dirty []bool) {
	k.vbm = vbMaskInto(k.vbm, frame, vb, known, k.tol)
	k.bbm = k.dil.DilateInto(k.bbm, k.vbm)
	// BBM includes VBM, so removing BBM removes both. ComplementOfUnion
	// reads each word of vcm before writing it, so vcm may be the output.
	_ = vcm.ComplementOfUnion(k.bbm, vcm, lbTileRows, dirty) // same geometry, checked by callers
}

// applyLeak folds one frame's LB into the accumulated planes ("latest
// leaked value per pixel" plus coverage) and counts it in LBFrames and
// LBBits. dirty is the LB's band occupancy from leak; covFull holds the
// per-band coverage saturation flags, kept current in place. Either may
// be nil to disable that skip.
func (r *Reconstruction) applyLeak(lb *imagex.Mask, frame *imagex.Image, dirty, covFull []bool) {
	n, _ := imagex.ApplyResidue(lb, frame, r.Recovered, r.Coverage, lbTileRows, dirty, covFull) // same geometry by construction
	r.LBFrames++
	r.LBBits += uint64(n)
}
