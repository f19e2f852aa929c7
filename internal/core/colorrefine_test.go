package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/bgbuster/bgbuster/internal/compositor"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/person"
	"github.com/bgbuster/bgbuster/internal/scene"
	"github.com/bgbuster/bgbuster/internal/segment"
	"github.com/bgbuster/bgbuster/internal/vidstream"
)

// The colour-refinement tests and BenchmarkColorRefine run at the
// live-calls geometry, on a rendered Zoom-profile call segmented by a
// seeded OfflineSegmenter: realistic VCMs with a few hundred rare-colour
// pixels per frame among tens of thousands.
const refineW, refineH = 320, 240

// refineCall renders a 320×240 call of n frames from seed and returns
// the blended frames and the true silhouettes.
func refineCall(tb testing.TB, seed int64, n int) ([]*imagex.Image, []*imagex.Mask) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	sc := scene.Generate(scene.Config{W: refineW, H: refineH, Clutter: 0.6}, rng)
	p := person.New(person.Config{Action: person.ActionArmWave}, rng)
	raw := vidstream.New(30)
	sils := make([]*imagex.Mask, 0, n)
	for i := 0; i < n; i++ {
		f := sc.Lit(1.0)
		sils = append(sils, p.Render(f, float64(i)/30, float64(n)/30))
		if err := raw.Append(f); err != nil {
			tb.Fatal(err)
		}
	}
	res, err := compositor.Compose(raw, sils, compositor.Options{
		Profile: compositor.ProfileZoom(),
		Virtual: compositor.StaticImage{Img: compositor.BuiltinImage("beach", refineW, refineH)},
	}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	return res.Blended.Frames, sils
}

// refineOpts is a colour-refining stream configuration for refineCall.
func refineOpts(mode VBMode, segSeed int64) Options {
	o := DefaultOptions()
	o.ColorRefine = true
	o.Segmenter = segment.NewOfflineSegmenter(rand.New(rand.NewSource(segSeed)))
	o.Mode = mode
	if mode == VBKnownImage {
		o.KnownImages = compositor.BuiltinImages(refineW, refineH)
	}
	return o
}

// TestStreamColorRefineDigest pins the colour-refined stream output end
// to end, which the golden corpus (ColorRefine off) does not: the LB
// size of every frame, the finalized claim set and its values, the
// derived coverage and the admission footprint, in both streamable
// modes. The digests were recorded before the refinement kernels were
// fused into one counting pass and must not move.
func TestStreamColorRefineDigest(t *testing.T) {
	frames, sils := refineCall(t, 61, 64)
	cases := []struct {
		name      string
		mode      VBMode
		digest    string
		footprint uint64
	}{
		{"known", VBKnownImage, "f01421a36ca85e56", 531968},
		{"unknown", VBUnknownImage, "08b8034ca76d4855", 935168},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewStream(refineW, refineH, refineOpts(tc.mode, 62))
			if err != nil {
				t.Fatal(err)
			}
			fp := fnv.New64a()
			var buf [8]byte
			for i, f := range frames {
				if err := s.Feed(f, sils[i]); err != nil {
					t.Fatal(err)
				}
				fp.Write(binary.LittleEndian.AppendUint64(buf[:0], s.Snapshot().LBBits))
			}
			if err := s.Finalize(); err != nil {
				t.Fatal(err)
			}
			rec := s.Snapshot()
			fp.Write([]byte(rec.VBName))
			fp.Write([]byte(residueHash(rec)))
			fp.Write(binary.LittleEndian.AppendUint64(buf[:0], math.Float64bits(rec.DerivedCoverage)))
			got := fmt.Sprintf("%016x", fp.Sum64())
			if got != tc.digest {
				t.Errorf("colour-refined stream digest = %s, want %s (coverage %d, LB bits %d)",
					got, tc.digest, rec.Coverage.Count(), rec.LBBits)
			}
			if mf := s.MemFootprint(); mf != tc.footprint {
				t.Errorf("MemFootprint = %d, want %d", mf, tc.footprint)
			}
		})
	}
}

// TestBatchColorRefineDigest pins the colour-refined batch output end
// to end, which the golden corpus (ColorRefine off) does not: the claim
// set and its values, the LB bit total, the identified VB and the
// derived coverage, in known and unknown-image modes. Every worker count
// must give the one digest. The digests were recorded before the batch
// refinement was fused into one counting pass and must not move.
func TestBatchColorRefineDigest(t *testing.T) {
	frames, sils := refineCall(t, 67, 64)
	v := vidstream.New(30)
	for _, f := range frames {
		if err := v.Append(f); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name   string
		mode   VBMode
		digest string
	}{
		{"known", VBKnownImage, "6561711b17a5da90"},
		{"unknown", VBUnknownImage, "cfe66a167bd05cd9"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 3, 8} {
				opts := refineOpts(tc.mode, 68)
				opts.Workers = workers
				rec, err := Reconstruct(v, sils, opts)
				if err != nil {
					t.Fatal(err)
				}
				fp := fnv.New64a()
				var buf [8]byte
				fp.Write([]byte(residueHash(rec)))
				fp.Write(binary.LittleEndian.AppendUint64(buf[:0], rec.LBBits))
				fp.Write([]byte(rec.VBName))
				fp.Write(binary.LittleEndian.AppendUint64(buf[:0], math.Float64bits(rec.DerivedCoverage)))
				if got := fmt.Sprintf("%016x", fp.Sum64()); got != tc.digest {
					t.Errorf("workers %d: colour-refined batch digest = %s, want %s (coverage %d, LB bits %d)",
						workers, got, tc.digest, rec.Coverage.Count(), rec.LBBits)
				}
			}
		})
	}
}

// TestBatchColorRefineMatchesTwoPassReference runs refineVCMsByColor
// and the frozen two-pass reference (count every VCM pixel of the call,
// then drop every VCM pixel whose bin count is at most the cut) on the
// same segmented VCMs and requires the same refined VCM on every frame,
// at several worker counts.
func TestBatchColorRefineMatchesTwoPassReference(t *testing.T) {
	frames, sils := refineCall(t, 69, 64)
	v := vidstream.New(30)
	seg := segment.NewOfflineSegmenter(rand.New(rand.NewSource(70)))
	vcms := make([]*imagex.Mask, len(frames))
	for i, f := range frames {
		if err := v.Append(f); err != nil {
			t.Fatal(err)
		}
		vcms[i] = seg.Segment(f, sils[i])
	}
	for _, threshold := range []float64{0.004, 0.02} {
		want := make([]*imagex.Mask, len(vcms))
		hist, total, before := make([]int, 4096), 0, 0
		for i, vcm := range vcms {
			want[i] = vcm.Clone()
			total += refHistQuant12(hist, frames[i], vcm)
			before += vcm.Count()
		}
		cut := int(threshold * float64(total))
		after := 0
		for i, m := range want {
			refDropRareColors(m, frames[i], hist, cut)
			after += m.Count()
		}
		if after == before {
			t.Fatalf("threshold %v: no pixel was dropped; the comparison proves nothing", threshold)
		}
		for _, workers := range []int{1, 2, 3} {
			got := make([]*imagex.Mask, len(vcms))
			for i, vcm := range vcms {
				got[i] = vcm.Clone()
			}
			refineVCMsByColor(v, got, threshold, workers)
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("threshold %v workers %d frame %d: refined VCM has %d pixels, reference %d",
						threshold, workers, i, got[i].Count(), want[i].Count())
				}
			}
		}
	}
}

// refTwoPass is the stream's colour refinement as it stood before the
// counting and drop passes were fused, kept frozen as the differential
// reference: count every VCM pixel into the histogram, then drop every
// VCM pixel whose bin count is at most the cut over the new total.
type refTwoPass struct {
	hist  []int
	total int
}

func (r *refTwoPass) refine(vcm *imagex.Mask, frame *imagex.Image, threshold float64) {
	r.total += refHistQuant12(r.hist, frame, vcm)
	refDropRareColors(vcm, frame, r.hist, int(threshold*float64(r.total)))
}

func refHistQuant12(hist []int, frame *imagex.Image, vcm *imagex.Mask) int {
	n, wpr := 0, vcm.WordsPerRow()
	for y := 0; y < vcm.H; y++ {
		pix := frame.Pix[y*vcm.W:]
		for j := 0; j < wpr; j++ {
			w := vcm.Word(y, j)
			n += bits.OnesCount64(w)
			for ; w != 0; w &= w - 1 {
				hist[quant12(pix[j<<6+bits.TrailingZeros64(w)])]++
			}
		}
	}
	return n
}

func refDropRareColors(vcm *imagex.Mask, frame *imagex.Image, hist []int, cut int) {
	wpr := vcm.WordsPerRow()
	for y := 0; y < vcm.H; y++ {
		pix := frame.Pix[y*vcm.W:]
		for j := 0; j < wpr; j++ {
			var drop uint64
			for w := vcm.Word(y, j); w != 0; w &= w - 1 {
				b := bits.TrailingZeros64(w)
				if hist[quant12(pix[j<<6+b])] <= cut {
					drop |= 1 << uint(b)
				}
			}
			if drop != 0 {
				vcm.AndNotWord(y, j, drop)
			}
		}
	}
}

// TestStreamColorRefineMatchesTwoPassReference runs the stream's
// refinement step and the frozen two-pass reference side by side on the
// same segmented VCMs and requires the same refined VCM on every frame
// and the same histogram at the end. Before each frame the kernel's VBM
// scratch is filled with ones, the worst a preceding derivation update
// can leave there.
func TestStreamColorRefineMatchesTwoPassReference(t *testing.T) {
	frames, sils := refineCall(t, 63, 64)
	for _, threshold := range []float64{0.004, 0.02} {
		opts := refineOpts(VBUnknownImage, 64)
		opts.ColorFreqThreshold = threshold
		s, err := NewStream(refineW, refineH, opts)
		if err != nil {
			t.Fatal(err)
		}
		s.ensureScratch()
		seg := segment.NewOfflineSegmenter(rand.New(rand.NewSource(64)))
		ref := &refTwoPass{hist: make([]int, 4096)}
		dropped := 0
		for i, f := range frames {
			s.kern.vbm.Clear()
			s.kern.vbm.Invert()
			vcm := seg.Segment(f, sils[i])
			want := vcm.Clone()
			before := vcm.Count()
			s.refineColors(vcm, f)
			ref.refine(want, f, threshold)
			if !vcm.Equal(want) {
				t.Fatalf("threshold %v frame %d: refined VCM has %d pixels, reference %d",
					threshold, i, vcm.Count(), want.Count())
			}
			dropped += before - vcm.Count()
		}
		if s.histTotal != ref.total {
			t.Fatalf("threshold %v: histogram total %d, reference %d", threshold, s.histTotal, ref.total)
		}
		for b := range ref.hist {
			if s.hist[b] != ref.hist[b] {
				t.Fatalf("threshold %v: bin %d = %d, reference %d", threshold, b, s.hist[b], ref.hist[b])
			}
		}
		if dropped == 0 {
			t.Fatalf("threshold %v: no pixel was dropped; the comparison proves nothing", threshold)
		}
	}
}

// BenchmarkColorRefine measures the colour refinement alone at 320×240
// on segmented frames of a rendered call. stream is one frame through
// the StreamReconstructor's refinement (histogram warmed by one pass
// over the call); batch is refineVCMsByColor over the whole call on one
// worker and batch-w2 on two, as replay runs it on a two-CPU host, with
// ns/frame reported beside ns/op. All include restoring the segmented
// VCMs, a word copy per mask.
func BenchmarkColorRefine(b *testing.B) {
	const n = 60
	frames, sils := refineCall(b, 65, n)
	seg := segment.NewOfflineSegmenter(rand.New(rand.NewSource(66)))
	vcms := make([]*imagex.Mask, n)
	for i, f := range frames {
		vcms[i] = seg.Segment(f, sils[i])
	}
	opts := refineOpts(VBUnknownImage, 66)

	b.Run("stream", func(b *testing.B) {
		s, err := NewStream(refineW, refineH, opts)
		if err != nil {
			b.Fatal(err)
		}
		s.ensureScratch()
		vcm := imagex.NewMask(refineW, refineH)
		for i, f := range frames {
			_ = vcm.CopyFrom(vcms[i]) // same geometry
			s.refineColors(vcm, f)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % n
			_ = vcm.CopyFrom(vcms[k])
			s.refineColors(vcm, frames[k])
		}
	})

	for _, workers := range []int{1, 2} {
		name := "batch"
		if workers > 1 {
			name = fmt.Sprintf("batch-w%d", workers)
		}
		b.Run(name, func(b *testing.B) {
			v := vidstream.New(30)
			work := make([]*imagex.Mask, n)
			for i, f := range frames {
				if err := v.Append(f); err != nil {
					b.Fatal(err)
				}
				work[i] = imagex.NewMask(refineW, refineH)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := range work {
					_ = work[k].CopyFrom(vcms[k])
				}
				refineVCMsByColor(v, work, opts.ColorFreqThreshold, workers)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/frame")
		})
	}
}
