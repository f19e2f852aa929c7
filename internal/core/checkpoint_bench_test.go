package core

import (
	"testing"

	"github.com/bgbuster/bgbuster/internal/compositor"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/segment"
)

// BenchmarkResumeStream resumes a 320x240 known-mode checkpoint, pinned
// to "beach", against the built-in dictionary. "resume" is the whole
// ResumeStream call; "fingerprint" is the options fingerprint that
// resume recomputes over every dictionary pixel, so its share of the
// resume comes from one command.
func BenchmarkResumeStream(b *testing.B) {
	const w, h = 320, 240
	opts := DefaultOptions()
	opts.Segmenter = segment.OracleSegmenter{}
	opts.KnownImages = compositor.BuiltinImages(w, h)
	s, err := NewStream(w, h, opts)
	if err != nil {
		b.Fatal(err)
	}
	skin := imagex.RGB{R: 200, G: 160, B: 140}
	for i := 0; i < DefaultIdentifyAfter+2; i++ {
		f := opts.KnownImages["beach"].Clone()
		sil := imagex.NewMask(w, h)
		f.FillEllipseMask(w/4+i*4, h/2, w/6, h/3, skin, sil)
		if err := s.Feed(f, sil); err != nil {
			b.Fatal(err)
		}
	}
	if !s.Identified() || s.vbName != "beach" {
		b.Fatalf("stream pinned %q (identified %v), want beach", s.vbName, s.Identified())
	}
	data, err := s.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("resume", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := ResumeStream(data, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fingerprint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			optionsFingerprint(w, h, opts)
		}
	})
}
