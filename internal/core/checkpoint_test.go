package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/bgbuster/bgbuster/internal/checkpoint"
	"github.com/bgbuster/bgbuster/internal/compositor"
	"github.com/bgbuster/bgbuster/internal/imagex"
)

func mustCheckpoint(t *testing.T, s *StreamReconstructor) []byte {
	t.Helper()
	data, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return data
}

func mustResume(t *testing.T, data []byte, opts Options) *StreamReconstructor {
	t.Helper()
	s, err := ResumeStream(data, opts)
	if err != nil {
		t.Fatalf("ResumeStream: %v", err)
	}
	return s
}

// assertSameState verifies two streams hold bit-identical accumulated
// state by comparing their canonical checkpoint encodings — which cover
// every field of the contract (identification, derivation, histogram,
// residue, frame counter).
func assertSameState(t *testing.T, label string, a, b *StreamReconstructor) {
	t.Helper()
	if !bytes.Equal(mustCheckpoint(t, a), mustCheckpoint(t, b)) {
		t.Fatalf("%s: checkpoint encodings diverge — state is not bit-identical", label)
	}
}

// streamWithResume feeds the call but replaces the stream with a
// checkpoint/resume round trip after every k-th frame, verifying along
// the way that a resumed stream re-encodes to the identical container
// (chained checkpoint → resume → checkpoint).
func streamWithResume(t *testing.T, w, h int, mkOpts func() Options,
	frames []*imagex.Image, sils []*imagex.Mask, k int) *StreamReconstructor {
	t.Helper()
	s, err := NewStream(w, h, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range frames {
		if err := s.Feed(frames[i], sils[i]); err != nil {
			t.Fatal(err)
		}
		if (i+1)%k != 0 {
			continue
		}
		data := mustCheckpoint(t, s)
		s = mustResume(t, data, mkOpts())
		if again := mustCheckpoint(t, s); !bytes.Equal(data, again) {
			t.Fatalf("frame %d: resume did not round-trip the container", i+1)
		}
	}
	return s
}

// TestCheckpointResumeParityKnown is the differential parity property
// test for known-image mode: interrupting at every k-th frame — inside
// the pre-identification buffer (k=1,3), exactly at the pin boundary
// (k=5 and k=10 with IdentifyAfter=10) and after it — must leave the
// stream bit-identical to one that never stopped, and (with the
// stateless oracle segmenter and color refinement off) bit-identical to
// the batch Reconstruct.
func TestCheckpointResumeParityKnown(t *testing.T) {
	const frames = 24
	res, sils := testCall(t, 50, frames, compositor.StaticImage{Img: beach()}, compositor.ProfileZoom())
	mkOpts := func() Options {
		o := oracleOpts()
		o.KnownImages = compositor.BuiltinImages(160, 120)
		o.ColorRefine = false
		return o
	}

	cont, err := NewStream(160, 120, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Blended.Frames {
		if err := cont.Feed(res.Blended.Frames[i], sils[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cont.Finalize(); err != nil {
		t.Fatal(err)
	}
	if cont.Snapshot().Coverage.Count() == 0 {
		t.Fatal("continuous run recovered nothing; parity would be vacuous")
	}

	batch, err := Reconstruct(res.Blended, sils, mkOpts())
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 3, 5, 10} {
		s := streamWithResume(t, 160, 120, mkOpts, res.Blended.Frames, sils, k)
		if err := s.Finalize(); err != nil {
			t.Fatal(err)
		}
		assertSameState(t, fmt.Sprintf("k=%d", k), cont, s)

		snap := s.Snapshot()
		if snap.VBName != batch.VBName {
			t.Fatalf("k=%d: resumed stream identified %q, batch %q", k, snap.VBName, batch.VBName)
		}
		if !snap.Coverage.Equal(batch.Coverage) {
			t.Fatalf("k=%d: resumed coverage %d != batch %d", k, snap.Coverage.Count(), batch.Coverage.Count())
		}
		for i := range snap.Recovered.Pix {
			if snap.Coverage.GetI(i) && snap.Recovered.Pix[i] != batch.Recovered.Pix[i] {
				t.Fatalf("k=%d: recovered pixel %d diverges from batch", k, i)
			}
		}
	}
}

// TestCheckpointResumeParityPerFrameTail pins per-frame parity after a
// resume: every frame fed after the last resume must add the same LB
// bits as the continuous run's frame and leave identical Recovered and
// Coverage planes.
func TestCheckpointResumeParityPerFrameTail(t *testing.T) {
	const frames, k, resumed = 18, 7, 14 // resumes after frames 7 and 14
	res, sils := testCall(t, 51, frames, compositor.StaticImage{Img: beach()}, compositor.ProfileZoom())
	mkOpts := func() Options {
		o := oracleOpts()
		o.KnownImages = compositor.BuiltinImages(160, 120)
		o.ColorRefine = false
		return o
	}
	cont, err := NewStream(160, 120, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < resumed; i++ {
		if err := cont.Feed(res.Blended.Frames[i], sils[i]); err != nil {
			t.Fatal(err)
		}
	}
	s := streamWithResume(t, 160, 120, mkOpts, res.Blended.Frames[:resumed], sils[:resumed], k)

	var leaked uint64
	for i := resumed; i < frames; i++ {
		sBefore, cBefore := s.Snapshot().LBBits, cont.Snapshot().LBBits
		if err := s.Feed(res.Blended.Frames[i], sils[i]); err != nil {
			t.Fatal(err)
		}
		if err := cont.Feed(res.Blended.Frames[i], sils[i]); err != nil {
			t.Fatal(err)
		}
		sr, cr := s.Snapshot(), cont.Snapshot()
		if got, want := sr.LBBits-sBefore, cr.LBBits-cBefore; got != want {
			t.Fatalf("frame %d: post-resume LB has %d bits, continuous run %d", i, got, want)
		}
		leaked += cr.LBBits - cBefore
		if !sr.Recovered.Equal(cr.Recovered) || !sr.Coverage.Equal(cr.Coverage) {
			t.Fatalf("frame %d: post-resume planes diverge from the continuous run", i)
		}
	}
	if leaked == 0 {
		t.Fatal("no post-resume frame leaked; parity would be vacuous")
	}
	if got := s.Snapshot().LBFrames; got != frames-resumed {
		t.Fatalf("resumed stream counted %d LB frames, want the %d fed since the resume", got, frames-resumed)
	}
}

// TestCheckpointResumeParityUnknown covers unknown-image mode with the
// online derivation, the running color-refinement histogram, and aux
// seeds in play.
func TestCheckpointResumeParityUnknown(t *testing.T) {
	const frames = 30
	res, sils := testCall(t, 52, frames, compositor.StaticImage{Img: beach()}, compositor.ProfileZoom())
	aux := &DerivedImage{Img: imagex.NewFilled(160, 120, imagex.RGB{R: 9}), Known: imagex.NewMask(160, 120)}
	aux.Known.Set(3, 3, true)
	mkOpts := func() Options {
		o := oracleOpts()
		o.Mode = VBUnknownImage
		o.ColorRefine = true
		o.AuxDerived = []*DerivedImage{aux}
		return o
	}

	cont, err := NewStream(160, 120, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Blended.Frames {
		if err := cont.Feed(res.Blended.Frames[i], sils[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cont.Finalize(); err != nil {
		t.Fatal(err)
	}
	if cont.Snapshot().DerivedCoverage == 0 {
		t.Fatal("no derivation; parity would be vacuous")
	}

	for _, k := range []int{1, 8} {
		s := streamWithResume(t, 160, 120, mkOpts, res.Blended.Frames, sils, k)
		if err := s.Finalize(); err != nil {
			t.Fatal(err)
		}
		assertSameState(t, "unknown", cont, s)
		if got, want := s.Snapshot().DerivedCoverage, cont.Snapshot().DerivedCoverage; got != want {
			t.Fatalf("k=%d: derived coverage %v != %v", k, got, want)
		}
	}
}

// TestCheckpointResumeParityMidDerivation resumes an unknown-image
// stream while LocalKnown is partly set and the colour histogram is
// non-empty, then compares the checkpoint bytes of the resumed and the
// uninterrupted stream after every later frame. The container leaves
// out the run counters under LocalKnown and resume sets them to 1, so
// the two streams' counters there differ; the test checks that they do,
// and that the bytes still match at every frame.
func TestCheckpointResumeParityMidDerivation(t *testing.T) {
	const frames, at = 30, 15
	res, sils := testCall(t, 56, frames, compositor.StaticImage{Img: beach()}, compositor.ProfileZoom())
	mkOpts := func() Options {
		o := oracleOpts()
		o.Mode = VBUnknownImage
		o.ColorRefine = true
		return o
	}
	cont, err := NewStream(160, 120, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < at; i++ {
		if err := cont.Feed(res.Blended.Frames[i], sils[i]); err != nil {
			t.Fatal(err)
		}
	}
	if n := cont.localKnown.Count(); n == 0 || n == 160*120 {
		t.Fatalf("LocalKnown holds %d of %d pixels at the resume; want it partly set", n, 160*120)
	}
	if cont.histTotal == 0 {
		t.Fatal("colour histogram is empty at the resume")
	}
	resumed := mustResume(t, mustCheckpoint(t, cont), mkOpts())
	differ := 0
	for i, r := range cont.runLen {
		if cont.localKnown.GetI(i) && r != resumed.runLen[i] {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("no run counter under LocalKnown differs from the resumed stream's; the test would be vacuous")
	}
	for i := at; i < frames; i++ {
		if err := cont.Feed(res.Blended.Frames[i], sils[i]); err != nil {
			t.Fatal(err)
		}
		if err := resumed.Feed(res.Blended.Frames[i], sils[i]); err != nil {
			t.Fatal(err)
		}
		assertSameState(t, fmt.Sprintf("frame %d", i+1), cont, resumed)
	}
}

// TestCheckpointResumeAfterFinalize covers the post-Finalize boundary:
// an evicted (finalized) session checkpoint must resume into a
// finalized stream with the full reconstruction, rejecting further
// frames.
func TestCheckpointResumeAfterFinalize(t *testing.T) {
	const frames = 7 // shorter than IdentifyAfter: Finalize pins
	res, sils := testCall(t, 53, frames, compositor.StaticImage{Img: beach()}, compositor.ProfileZoom())
	opts := oracleOpts()
	opts.KnownImages = compositor.BuiltinImages(160, 120)
	opts.ColorRefine = false

	s, err := NewStream(160, 120, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Blended.Frames {
		if err := s.Feed(res.Blended.Frames[i], sils[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint mid-buffering, resume, then finalize the resumed copy:
	// the pin must happen in the resumed incarnation.
	data := mustCheckpoint(t, s)
	r := mustResume(t, data, opts)
	if r.Identified() {
		t.Fatal("resume invented an identification")
	}
	if err := r.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, "finalize-after-resume", s, r)

	// Checkpoint the finalized state and resume it.
	final := mustCheckpoint(t, s)
	r2 := mustResume(t, final, opts)
	if !r2.Finalized() || !r2.Identified() {
		t.Fatal("finalized checkpoint resumed unfinalized")
	}
	if err := r2.Feed(res.Blended.Frames[0], sils[0]); !errors.Is(err, ErrFinalized) {
		t.Fatalf("Feed on a resumed finalized stream = %v, want ErrFinalized", err)
	}
	assertSameState(t, "resume-finalized", s, r2)
}

// TestResumeSharesDictionaryVB pins the resumed pinned VB: a checkpoint
// names it, and the resumed stream points at the dictionary's own image
// (the fingerprint binds the dictionary) and re-encodes byte for byte.
func TestResumeSharesDictionaryVB(t *testing.T) {
	res, sils := testCall(t, 55, DefaultIdentifyAfter+2, compositor.StaticImage{Img: beach()}, compositor.ProfileZoom())
	opts := oracleOpts()
	opts.KnownImages = compositor.BuiltinImages(160, 120)
	s, err := NewStream(160, 120, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Blended.Frames {
		if err := s.Feed(res.Blended.Frames[i], sils[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Identified() || s.vbName != "beach" {
		t.Fatalf("stream pinned %q (identified %v), want beach", s.vbName, s.Identified())
	}
	data := mustCheckpoint(t, s)
	known := opts.KnownImages["beach"]

	r := mustResume(t, data, opts)
	if r.vbImage != known {
		t.Error("resumed stream's pinned VB is not the dictionary's image")
	}
	if !bytes.Equal(mustCheckpoint(t, r), data) {
		t.Error("resume changed the checkpoint bytes")
	}
}

func TestResumeRejectsMismatch(t *testing.T) {
	res, sils := testCall(t, 54, 5, compositor.StaticImage{Img: beach()}, compositor.ProfileZoom())
	opts := oracleOpts()
	opts.KnownImages = compositor.BuiltinImages(160, 120)
	s, err := NewStream(160, 120, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Blended.Frames {
		if err := s.Feed(res.Blended.Frames[i], sils[i]); err != nil {
			t.Fatal(err)
		}
	}
	data := mustCheckpoint(t, s)

	t.Run("different-tolerance", func(t *testing.T) {
		o := opts
		o.MatchTol = opts.MatchTol + 1
		if _, err := ResumeStream(data, o); !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("tolerance skew = %v, want ErrCheckpointMismatch", err)
		}
	})
	t.Run("different-dictionary", func(t *testing.T) {
		o := opts
		o.KnownImages = map[string]*imagex.Image{"beach": beach()}
		if _, err := ResumeStream(data, o); !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("dictionary skew = %v, want ErrCheckpointMismatch", err)
		}
	})
	t.Run("different-mode", func(t *testing.T) {
		o := oracleOpts()
		o.Mode = VBUnknownImage
		if _, err := ResumeStream(data, o); !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("mode skew = %v, want ErrCheckpointMismatch", err)
		}
	})
	t.Run("garbage", func(t *testing.T) {
		if _, err := ResumeStream([]byte("BBCKgarbage"), opts); !errors.Is(err, checkpoint.ErrBadCheckpoint) {
			t.Fatalf("garbage = %v, want ErrBadCheckpoint", err)
		}
	})
	t.Run("invalid-options", func(t *testing.T) {
		var none Options
		if _, err := ResumeStream(data, none); err == nil {
			t.Fatal("nil segmenter accepted on resume")
		}
	})
}

// TestResumeRejectsInconsistentState feeds hand-crafted containers that
// pass the wire format but are semantically impossible for the mode;
// validateResumeState must refuse them instead of letting the first
// Feed panic.
func TestResumeRejectsInconsistentState(t *testing.T) {
	const w, h = 8, 6
	opts := oracleOpts()
	opts.KnownImages = map[string]*imagex.Image{"beach": compositor.BuiltinImage("beach", w, h)}
	nopts, err := normalizeStreamOptions(w, h, opts)
	if err != nil {
		t.Fatal(err)
	}
	fp := optionsFingerprint(w, h, nopts)
	base := func() *checkpoint.State {
		return &checkpoint.State{W: w, H: h, Mode: int(VBKnownImage), Fingerprint: fp,
			Recovered: imagex.New(w, h), Coverage: imagex.NewMask(w, h)}
	}
	encode := func(st *checkpoint.State) []byte {
		data, err := checkpoint.Encode(st)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	t.Run("derivation-in-known-mode", func(t *testing.T) {
		st := base()
		st.DerivedImg = imagex.New(w, h)
		st.DerivedKnown = imagex.NewMask(w, h)
		st.LocalKnown = imagex.NewMask(w, h)
		st.RunLen = make([]uint16, w*h)
		if _, err := ResumeStream(encode(st), opts); !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("pending-after-pin", func(t *testing.T) {
		st := base()
		st.Identified = true
		st.VBName = "beach"
		st.PendingFrames = []*imagex.Image{imagex.New(w, h)}
		st.PendingOracles = []*imagex.Mask{imagex.NewMask(w, h)}
		if _, err := ResumeStream(encode(st), opts); !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("pinned-vb-not-in-dictionary", func(t *testing.T) {
		st := base()
		st.Identified = true
		st.VBName = "no-such-vb"
		if _, err := ResumeStream(encode(st), opts); !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("unknown-mode-without-derivation", func(t *testing.T) {
		uo := oracleOpts()
		uo.Mode = VBUnknownImage
		nuo, err := normalizeStreamOptions(w, h, uo)
		if err != nil {
			t.Fatal(err)
		}
		st := base()
		st.Mode = int(VBUnknownImage)
		st.Fingerprint = optionsFingerprint(w, h, nuo)
		if _, err := ResumeStream(encode(st), uo); !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("err = %v", err)
		}
	})
}

// TestOptionsFingerprintSensitivity pins which knobs the fingerprint
// must react to (anything that steers stream evolution) and which it
// must ignore (execution details like Workers).
func TestOptionsFingerprintSensitivity(t *testing.T) {
	mk := func() Options {
		o := oracleOpts()
		o.KnownImages = map[string]*imagex.Image{"beach": compositor.BuiltinImage("beach", 8, 6)}
		n, err := normalizeStreamOptions(8, 6, o)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	baseFP := optionsFingerprint(8, 6, mk())
	if got := optionsFingerprint(8, 6, mk()); got != baseFP {
		t.Fatal("fingerprint not deterministic")
	}
	if got := optionsFingerprint(9, 6, mk()); got == baseFP {
		t.Fatal("geometry change not detected")
	}
	for name, mutate := range map[string]func(*Options){
		"tolerance": func(o *Options) { o.MatchTol++ },
		"phi":       func(o *Options) { o.Phi++ },
		"stability": func(o *Options) { o.StabilityThreshold++ },
		"identify":  func(o *Options) { o.IdentifyAfter++ },
		"refine":    func(o *Options) { o.ColorRefine = !o.ColorRefine },
		"freq":      func(o *Options) { o.ColorFreqThreshold *= 2 },
		"dict-name": func(o *Options) {
			o.KnownImages = map[string]*imagex.Image{"x": compositor.BuiltinImage("beach", 8, 6)}
		},
		"dict-pixel": func(o *Options) { o.KnownImages["beach"].Pix[0].R ^= 1 },
	} {
		o := mk()
		mutate(&o)
		if optionsFingerprint(8, 6, o) == baseFP {
			t.Errorf("%s change not reflected in the fingerprint", name)
		}
	}
	o := mk()
	o.Workers = 7
	if optionsFingerprint(8, 6, o) != baseFP {
		t.Error("Workers (execution detail) must not change the fingerprint")
	}
}

// TestFingerprintImageMatchesWholeRaster pins the chunked image hash to
// the hash of the whole 16+3·W·H-byte raster it replaced, at pixel
// counts on and around the chunk boundary.
func TestFingerprintImageMatchesWholeRaster(t *testing.T) {
	for _, g := range [][2]int{{1, 1}, {7, 5}, {1023, 1}, {32, 32}, {1025, 1}, {1024, 3}, {161, 120}} {
		img := compositor.BuiltinImage("space", g[0], g[1])
		whole := make([]byte, 0, 16+3*len(img.Pix))
		whole = binary.LittleEndian.AppendUint64(whole, uint64(img.W))
		whole = binary.LittleEndian.AppendUint64(whole, uint64(img.H))
		ref := fnv.New64a()
		ref.Write(imagex.AppendPix(whole, img.Pix))
		got := fnv.New64a()
		fingerprintImage(got, img)
		if got.Sum64() != ref.Sum64() {
			t.Errorf("%dx%d: fingerprint %016x, whole raster hashes to %016x", g[0], g[1], got.Sum64(), ref.Sum64())
		}
	}
}
