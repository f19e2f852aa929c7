package segment

import (
	"math/rand"
	"testing"

	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/person"
)

// BenchmarkOfflineSegment times the default OfflineSegmenter on a
// rendered 320x240 caller silhouette: Segment allocates the mask per
// call, SegmentInto reuses one.
func BenchmarkOfflineSegment(b *testing.B) {
	const w, h = 320, 240
	frame := imagex.New(w, h)
	oracle := person.New(person.Config{Action: person.ActionArmWave}, rand.New(rand.NewSource(1))).Render(frame, 0.5, 1)
	b.Run("Segment", func(b *testing.B) {
		seg := NewOfflineSegmenter(rand.New(rand.NewSource(2)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seg.Segment(frame, oracle)
		}
	})
	b.Run("SegmentInto", func(b *testing.B) {
		seg := NewOfflineSegmenter(rand.New(rand.NewSource(2)))
		dst := seg.Segment(frame, oracle)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = seg.SegmentInto(dst, frame, oracle)
		}
	})
}
