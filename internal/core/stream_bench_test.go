package core

import (
	"testing"
)

// BenchmarkStreamFeed measures the streaming hot path per frame at
// steady state (identification pinned, scratch warm). ns/op is the
// per-frame cost; session-bytes is the admission footprint
// (MemFootprint) at the end of the run and growth-B/frame its increase
// per benchmarked frame, which should read zero. CI runs this with
// -benchmem as the density smoke test; the hard zero-alloc gate is
// TestStreamFeedSteadyStateZeroAlloc.
func BenchmarkStreamFeed(b *testing.B) {
	v, oracles, opts := benchCall(b)
	for _, unknown := range []bool{false, true} {
		name := "known"
		if unknown {
			name = "unknown"
		}
		b.Run(name, func(b *testing.B) {
			o := opts
			if unknown {
				o.Mode = VBUnknownImage
				o.KnownImages = nil
			}
			s, err := NewStream(benchRW, benchRH, o)
			if err != nil {
				b.Fatal(err)
			}
			for i, f := range v.Frames {
				if err := s.Feed(f, oracles[i]); err != nil {
					b.Fatal(err)
				}
			}
			before := s.MemFootprint()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx := i % benchFrames
				if err := s.Feed(v.Frames[idx], oracles[idx]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			after := s.MemFootprint()
			b.ReportMetric(float64(after), "session-bytes")
			b.ReportMetric(float64(after-before)/float64(b.N), "growth-B/frame")
		})
	}
}

// BenchmarkStreamFeedN measures batch ingest, 16 frames per FeedN call;
// ns/op stays per frame for direct comparison with BenchmarkStreamFeed.
func BenchmarkStreamFeedN(b *testing.B) {
	v, oracles, opts := benchCall(b)
	for _, unknown := range []bool{false, true} {
		name := "known"
		if unknown {
			name = "unknown"
		}
		b.Run(name, func(b *testing.B) {
			o := opts
			if unknown {
				o.Mode = VBUnknownImage
				o.KnownImages = nil
			}
			s, err := NewStream(benchRW, benchRH, o)
			if err != nil {
				b.Fatal(err)
			}
			for i, f := range v.Frames {
				if err := s.Feed(f, oracles[i]); err != nil {
					b.Fatal(err)
				}
			}
			var batch [16]Frame
			b.ReportAllocs()
			b.ResetTimer()
			for fed := 0; fed < b.N; {
				n := 0
				for ; n < len(batch) && fed+n < b.N; n++ {
					idx := (fed + n) % benchFrames
					batch[n] = Frame{Img: v.Frames[idx], Oracle: oracles[idx]}
				}
				if _, _, err := s.FeedN(batch[:n]); err != nil {
					b.Fatal(err)
				}
				fed += n
			}
		})
	}
}
