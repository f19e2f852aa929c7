package core

import (
	"testing"

	"github.com/bgbuster/bgbuster/internal/compositor"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/segment"
)

// BenchmarkResumeStream checkpoints and resumes two streams, each
// sub-benchmark reporting the checkpoint's size as ckpt-bytes:
//
//   - a 320x240 known-mode stream pinned to "beach" against the
//     built-in dictionary. "resume" is the whole ResumeStream call,
//     "encode" the whole Checkpoint call, and "fingerprint" the options
//     fingerprint that resume recomputes over every dictionary pixel, so
//     its share of the resume comes from one command;
//   - a 160x120 unknown-mode stream midway through its derivation, with
//     part of the frame derived, part of it leaked into the residue and
//     a non-empty colour histogram ("unknown-160x120/encode" and
//     "unknown-160x120/resume").
func BenchmarkResumeStream(b *testing.B) {
	const w, h = 320, 240
	opts := DefaultOptions()
	opts.Segmenter = segment.OracleSegmenter{}
	opts.KnownImages = compositor.BuiltinImages(w, h)
	s, err := NewStream(w, h, opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < DefaultIdentifyAfter+2; i++ {
		f, sil := benchFrame(opts.KnownImages["beach"], nil, i)
		if err := s.Feed(f, sil); err != nil {
			b.Fatal(err)
		}
	}
	if !s.Identified() || s.vbName != "beach" {
		b.Fatalf("stream pinned %q (identified %v), want beach", s.vbName, s.Identified())
	}
	benchCheckpoint(b, s, opts)
	b.Run("fingerprint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			optionsFingerprint(w, h, opts)
		}
	})

	b.Run("unknown-160x120", func(b *testing.B) {
		const w, h = 160, 120
		opts := DefaultOptions()
		opts.Segmenter = segment.OracleSegmenter{}
		opts.Mode = VBUnknownImage
		s, err := NewStream(w, h, opts)
		if err != nil {
			b.Fatal(err)
		}
		vb, real := compositor.BuiltinImage("beach", w, h), compositor.BuiltinImage("office", w, h)
		for i := 0; i < 2*DefaultStabilityThreshold; i++ {
			f, sil := benchFrame(vb, real, i)
			if err := s.Feed(f, sil); err != nil {
				b.Fatal(err)
			}
		}
		if n := s.localKnown.Count(); n == 0 || n == w*h || s.histTotal == 0 || s.rec.Coverage.Count() == 0 {
			b.Fatalf("derived %d of %d pixels, histogram total %d, residue %d pixels: not midway",
				n, w*h, s.histTotal, s.rec.Coverage.Count())
		}
		benchCheckpoint(b, s, opts)
	})
}

// benchFrame composes frame i of a synthetic call over vb: a caller
// (an ellipse) sweeping right, and, when real is non-nil, a square of
// the real background leaking through at a moving spot.
func benchFrame(vb, real *imagex.Image, i int) (*imagex.Image, *imagex.Mask) {
	w, h := vb.W, vb.H
	f := vb.Clone()
	if real != nil {
		side := w / 8
		x0, y0 := (i*side/2)%(w-side), h/8
		for y := y0; y < y0+side; y++ {
			for x := x0; x < x0+side; x++ {
				f.Set(x, y, real.At(x, y))
			}
		}
	}
	sil := imagex.NewMask(w, h)
	f.FillEllipseMask(w/4+i*4, h/2, w/6, h/3, imagex.RGB{R: 200, G: 160, B: 140}, sil)
	return f, sil
}

// benchCheckpoint runs the "encode" and "resume" sub-benchmarks for s.
func benchCheckpoint(b *testing.B, s *StreamReconstructor, opts Options) {
	data, err := s.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(data)), "ckpt-bytes")
	})
	b.Run("resume", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := ResumeStream(data, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(data)), "ckpt-bytes")
	})
}
