package core

import (
	"errors"
	"testing"

	"github.com/bgbuster/bgbuster/internal/compositor"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/vidstream"
)

func TestNewStreamValidation(t *testing.T) {
	opts := oracleOpts()
	opts.KnownImages = compositor.BuiltinImages(40, 30)
	if _, err := NewStream(0, 30, opts); err == nil {
		t.Fatal("bad geometry accepted")
	}
	bad := opts
	bad.Segmenter = nil
	if _, err := NewStream(40, 30, bad); err == nil {
		t.Fatal("nil segmenter accepted")
	}
	noDict := oracleOpts()
	noDict.KnownImages = nil
	if _, err := NewStream(40, 30, noDict); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("empty dictionary error = %v", err)
	}
	video := oracleOpts()
	video.Mode = VBKnownVideo
	if _, err := NewStream(40, 30, video); err == nil {
		t.Fatal("video mode must not be streamable")
	}
}

func TestStreamMatchesBatchKnownImage(t *testing.T) {
	res, sils := testCall(t, 30, 30, compositor.StaticImage{Img: beach()}, compositor.ProfileZoom())

	opts := oracleOpts()
	opts.KnownImages = compositor.BuiltinImages(160, 120)
	batch, err := Reconstruct(res.Blended, sils, opts)
	if err != nil {
		t.Fatal(err)
	}

	stream, err := NewStream(160, 120, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range res.Blended.Frames {
		if err := stream.Feed(f, sils[i]); err != nil {
			t.Fatal(err)
		}
	}
	snap := stream.Snapshot()

	if snap.VBName != batch.VBName {
		t.Fatalf("stream identified %q, batch %q", snap.VBName, batch.VBName)
	}
	if stream.Frames() != 30 {
		t.Fatalf("frames = %d", stream.Frames())
	}
	// The color-refinement timing differs, so require close (not equal)
	// agreement.
	inter := snap.Coverage.Overlap(batch.Coverage)
	union := snap.Coverage.Count() + batch.Coverage.Count() - inter
	if union == 0 {
		t.Fatal("both reconstructions empty")
	}
	if j := float64(inter) / float64(union); j < 0.75 {
		t.Fatalf("stream/batch coverage Jaccard = %.2f", j)
	}
}

func TestStreamUnknownImageDerivesOnline(t *testing.T) {
	res, sils := testCall(t, 31, 40, compositor.StaticImage{Img: beach()}, compositor.ProfileZoom())
	opts := oracleOpts()
	opts.Mode = VBUnknownImage

	stream, err := NewStream(160, 120, opts)
	if err != nil {
		t.Fatal(err)
	}
	covAt10 := 0.0
	for i, f := range res.Blended.Frames {
		if err := stream.Feed(f, sils[i]); err != nil {
			t.Fatal(err)
		}
		if i == 10 {
			covAt10 = stream.Snapshot().DerivedCoverage
		}
	}
	snap := stream.Snapshot()
	if snap.DerivedCoverage <= covAt10 {
		t.Fatalf("derivation coverage must grow: %.3f at frame 10 vs %.3f at end",
			covAt10, snap.DerivedCoverage)
	}
	if snap.DerivedCoverage < 0.4 {
		t.Fatalf("final derivation coverage %.3f too low", snap.DerivedCoverage)
	}
	if snap.RBRR() <= 0 {
		t.Fatal("stream recovered nothing")
	}
}

func TestStreamSnapshotMidCall(t *testing.T) {
	// A snapshot must be available before the call ends and grow over
	// time (the live-adversary property).
	res, sils := testCall(t, 32, 24, compositor.StaticImage{Img: beach()}, compositor.ProfileZoom())
	opts := oracleOpts()
	opts.KnownImages = compositor.BuiltinImages(160, 120)
	stream, err := NewStream(160, 120, opts)
	if err != nil {
		t.Fatal(err)
	}
	var early int
	for i, f := range res.Blended.Frames {
		if err := stream.Feed(f, sils[i]); err != nil {
			t.Fatal(err)
		}
		if i == 14 {
			early = stream.Snapshot().Coverage.Count()
			if early == 0 {
				t.Fatal("no recovery by frame 15")
			}
		}
	}
	if final := stream.Snapshot().Coverage.Count(); final < early {
		t.Fatalf("coverage shrank: %d → %d", early, final)
	}
}

// TestStreamShortCallParity is the differential regression for the
// short-call truncation bug: a call shorter than the IdentifyAfter
// window used to leave identification unpinned and Snapshot empty.
// With Finalize, the stream must yield the same non-empty
// reconstruction as the batch pass (bit-identical with the oracle
// segmenter and color refinement off — every other stage is
// deterministic and stateless).
func TestStreamShortCallParity(t *testing.T) {
	const frames = 7 // < DefaultIdentifyAfter
	res, sils := testCall(t, 33, frames, compositor.StaticImage{Img: beach()}, compositor.ProfileZoom())

	opts := oracleOpts()
	opts.KnownImages = compositor.BuiltinImages(160, 120)
	opts.ColorRefine = false

	batch, err := Reconstruct(res.Blended, sils, opts)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Coverage.Count() == 0 {
		t.Fatal("batch reconstruction empty; test call leaks nothing")
	}

	stream, err := NewStream(160, 120, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range res.Blended.Frames {
		if err := stream.Feed(f, sils[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Before Finalize the short call is still buffered (documented).
	if got := stream.Snapshot().Coverage.Count(); got != 0 {
		t.Fatalf("unfinalized short stream claimed %d pixels; want 0 (buffered)", got)
	}
	if stream.Identified() {
		t.Fatal("identified before the window or Finalize")
	}
	if err := stream.Finalize(); err != nil {
		t.Fatal(err)
	}
	if !stream.Identified() || !stream.Finalized() {
		t.Fatal("Finalize must pin identification")
	}
	snap := stream.Snapshot()
	if snap.VBName != batch.VBName {
		t.Fatalf("stream identified %q, batch %q", snap.VBName, batch.VBName)
	}
	if !snap.Coverage.Equal(batch.Coverage) {
		t.Fatalf("short-call stream coverage %d != batch %d",
			snap.Coverage.Count(), batch.Coverage.Count())
	}
	for i := range snap.Recovered.Pix {
		if snap.Coverage.GetI(i) && snap.Recovered.Pix[i] != batch.Recovered.Pix[i] {
			t.Fatalf("recovered pixel %d diverges", i)
		}
	}

	// Finalize is idempotent; Feed afterwards is rejected.
	if err := stream.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := stream.Feed(res.Blended.Frames[0], sils[0]); !errors.Is(err, ErrFinalized) {
		t.Fatalf("Feed after Finalize = %v, want ErrFinalized", err)
	}
}

func TestStreamIdentifyAfterKnob(t *testing.T) {
	res, sils := testCall(t, 34, 6, compositor.StaticImage{Img: beach()}, compositor.ProfileZoom())
	opts := oracleOpts()
	opts.KnownImages = compositor.BuiltinImages(160, 120)
	opts.IdentifyAfter = 3
	stream, err := NewStream(160, 120, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range res.Blended.Frames {
		if err := stream.Feed(f, sils[i]); err != nil {
			t.Fatal(err)
		}
		if i == 1 && stream.Identified() {
			t.Fatal("identified before the configured window")
		}
	}
	if !stream.Identified() {
		t.Fatal("IdentifyAfter=3 must pin within 6 frames")
	}
	if stream.Snapshot().Coverage.Count() == 0 {
		t.Fatal("no recovery after early identification")
	}
}

func TestStreamNilOracleRejected(t *testing.T) {
	opts := oracleOpts()
	opts.KnownImages = compositor.BuiltinImages(40, 30)
	stream, err := NewStream(40, 30, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Feed(imagex.New(40, 30), nil); err == nil {
		t.Fatal("nil oracle accepted")
	}
	if err := stream.Feed(imagex.New(40, 30), imagex.NewMask(4, 4)); !errors.Is(err, imagex.ErrBounds) {
		t.Fatalf("oracle geometry error = %v", err)
	}
	if stream.Frames() != 0 {
		t.Fatalf("rejected frames counted: %d", stream.Frames())
	}
}

// TestStreamAuxPrecedenceMatchesBatch is the regression for the
// aux-derivation precedence divergence: the stream used to pin
// AuxDerived pixels forever, while the batch path lets locally derived
// pixels win. A poisoned aux seed must be overridden once the local
// derivation stabilises.
func TestStreamAuxPrecedenceMatchesBatch(t *testing.T) {
	const w, h, n = 16, 12, 14
	good := imagex.RGB{R: 50, G: 100, B: 150}
	bad := imagex.RGB{R: 250, G: 5, B: 5}

	v := vidstream.New(30)
	sils := make([]*imagex.Mask, n)
	for i := 0; i < n; i++ {
		if err := v.Append(imagex.NewFilled(w, h, good)); err != nil {
			t.Fatal(err)
		}
		sils[i] = imagex.NewMask(w, h)
	}
	aux := &DerivedImage{Img: imagex.NewFilled(w, h, bad), Known: imagex.NewFullMask(w, h)}

	opts := oracleOpts()
	opts.Mode = VBUnknownImage
	opts.AuxDerived = []*DerivedImage{aux}
	opts.ColorRefine = false

	batch, err := Reconstruct(v, sils, opts)
	if err != nil {
		t.Fatal(err)
	}

	stream, err := NewStream(w, h, opts)
	if err != nil {
		t.Fatal(err)
	}
	var lastBits uint64 // LB bits the last Feed added
	for i, f := range v.Frames {
		before := stream.Snapshot().LBBits
		if err := stream.Feed(f, sils[i]); err != nil {
			t.Fatal(err)
		}
		lastBits = stream.Snapshot().LBBits - before
	}
	if err := stream.Finalize(); err != nil {
		t.Fatal(err)
	}

	d := stream.Derived()
	if d == nil {
		t.Fatal("no derivation exposed")
	}
	if got := d.Img.At(w/2, h/2); got != good {
		t.Fatalf("derived center pixel = %+v, aux seed not overridden (want %+v)", got, good)
	}
	if d.Coverage() != 1.0 {
		t.Fatalf("derived coverage = %v", d.Coverage())
	}
	// Batch semantics: local derivation wins everywhere the static VB
	// stabilised, so the batch masks every frame fully and claims
	// nothing. The stream's cumulative coverage legitimately includes
	// the pre-stabilisation frames (the documented online divergence),
	// but once the local derivation overrides the poisoned seed the
	// per-frame leak mask must agree with the batch: empty. With the
	// aux pixels pinned forever (the bug), every frame — including the
	// last — claimed the whole frame.
	if got := batch.Coverage.Count(); got != 0 {
		t.Fatalf("batch claimed %d pixels on a static uniform call", got)
	}
	if lastBits != 0 {
		t.Fatalf("final-frame LB claimed %d pixels; poisoned aux still active", lastBits)
	}
}

func TestStreamFinalizeEmptyAndUnknownMode(t *testing.T) {
	opts := oracleOpts()
	opts.KnownImages = compositor.BuiltinImages(8, 8)
	stream, err := NewStream(8, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Finalize(); err != nil {
		t.Fatal(err)
	}
	if stream.Identified() {
		t.Fatal("zero-frame Finalize must not invent an identification")
	}
	if stream.Snapshot().VBName != "" {
		t.Fatal("zero-frame Finalize set a VB name")
	}

	uo := oracleOpts()
	uo.Mode = VBUnknownImage
	us, err := NewStream(8, 8, uo)
	if err != nil {
		t.Fatal(err)
	}
	if err := us.Feed(imagex.New(8, 8), imagex.NewMask(8, 8)); err != nil {
		t.Fatal(err)
	}
	if err := us.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := us.Feed(imagex.New(8, 8), imagex.NewMask(8, 8)); !errors.Is(err, ErrFinalized) {
		t.Fatalf("unknown-mode Feed after Finalize = %v", err)
	}
}

func TestStreamRejectsWrongGeometry(t *testing.T) {
	opts := oracleOpts()
	opts.KnownImages = compositor.BuiltinImages(40, 30)
	stream, err := NewStream(40, 30, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Feed(imagex.New(10, 10), imagex.NewMask(10, 10)); !errors.Is(err, imagex.ErrBounds) {
		t.Fatalf("geometry error = %v", err)
	}
}
