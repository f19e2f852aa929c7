// Package metrics implements the paper's performance metrics (Section
// VIII-A): Virtual Background Masking Rate (VBMR), Reconstructed
// Background Recovery Rate (RBRR), Action Speed, and Displacement — plus
// verified-precision extensions this reproduction adds so the
// dynamic-virtual-background mitigation results (paper Figure 15, where
// claimed RBRR inflates with false positives) can be quantified.
//
// Action Speed and Displacement are computed by
// (*vidstream.Video).ActionSpeed and (*vidstream.Video).Displacement.
package metrics

import (
	"fmt"
	"math"

	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/imagex"
)

// VBMR returns the Virtual Background Masking Rate for one frame, in
// percent: the share of true virtual-background pixels that the
// attacker's masking removed (i.e. did NOT mistake for leaked
// background). 100 % means no VB pixel survived into the claimed leak.
func VBMR(claimedLB, trueVB *imagex.Mask) (float64, error) {
	if !claimedLB.SameSize(trueVB) {
		return 0, fmt.Errorf("metrics: vbmr %dx%d vs %dx%d: %w",
			claimedLB.W, claimedLB.H, trueVB.W, trueVB.H, imagex.ErrBounds)
	}
	vb := trueVB.Count()
	if vb == 0 {
		return 100, nil
	}
	leakedVB := claimedLB.Overlap(trueVB)
	return 100 * float64(vb-leakedVB) / float64(vb), nil
}

// VideoVBMR averages the per-frame VBMR over a call; trueVBs must align
// with claims frame-by-frame.
func VideoVBMR(claims, trueVBs []*imagex.Mask) (float64, error) {
	if len(claims) != len(trueVBs) {
		return 0, fmt.Errorf("metrics: %d claims vs %d VB masks", len(claims), len(trueVBs))
	}
	if len(claims) == 0 {
		return 0, fmt.Errorf("metrics: no frames")
	}
	sum := 0.0
	for i := range claims {
		v, err := VBMR(claims[i], trueVBs[i])
		if err != nil {
			return 0, fmt.Errorf("metrics: frame %d: %w", i, err)
		}
		sum += v
	}
	return sum / float64(len(claims)), nil
}

// RBRR returns the claimed Reconstructed Background Recovery Rate in
// percent: the fraction of the frame claimed leaked in at least one
// frame. This matches the paper's Figures 7–12 semantics, and — like the
// paper's Figure 15 — inflates when a mitigation tricks the framework
// into claiming virtual-background pixels.
func RBRR(rec *core.Reconstruction) float64 { return rec.RBRR() }

// Verification compares a reconstruction against the true background of
// the scene (pre-person, fully lit or as-lit; the dataset provides it).
type Verification struct {
	// ClaimedPct is the claimed RBRR (percent of frame claimed).
	ClaimedPct float64
	// TruePct is the verified recovery: percent of the frame that was
	// claimed AND matches the true background within tolerance.
	TruePct float64
	// Precision is TruePct/ClaimedPct in [0,1]; 1 when nothing claimed.
	Precision float64
}

// Verify scores a reconstruction against the true background image.
func Verify(rec *core.Reconstruction, trueBackground *imagex.Image, tol int) (Verification, error) {
	if rec.Recovered.W != trueBackground.W || rec.Recovered.H != trueBackground.H {
		return Verification{}, fmt.Errorf("metrics: verify %dx%d vs %dx%d: %w",
			rec.Recovered.W, rec.Recovered.H, trueBackground.W, trueBackground.H, imagex.ErrBounds)
	}
	claimed, good := 0, 0
	rec.Coverage.ForEachSet(func(i int) {
		claimed++
		if imagex.WithinTol(rec.Recovered.Pix[i], trueBackground.Pix[i], tol) {
			good++
		}
	})
	total := float64(rec.Coverage.Len())
	v := Verification{
		ClaimedPct: 100 * float64(claimed) / total,
		TruePct:    100 * float64(good) / total,
		Precision:  1,
	}
	if claimed > 0 {
		v.Precision = float64(good) / float64(claimed)
	}
	return v, nil
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Stddev returns the sample standard deviation of xs (0 for fewer than
// two samples).
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)-1))
}
