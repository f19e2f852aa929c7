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
