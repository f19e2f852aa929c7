package fleet

import (
	"fmt"
	"testing"

	"github.com/bgbuster/bgbuster/internal/gallery"
)

// BenchmarkGalleryFanout measures meeting-scale ingestion: one
// composite frame in, N supervised sessions out, at the two canonical
// gallery sizes (3x3 and 5x5). The op is ONE composite frame through
// a GallerySink over a local shard — demux (grid inference + crop)
// plus N session feeds — so allocs/op is allocs per composite frame and the derived
// metric tile-feeds/s is per-participant session throughput.
func BenchmarkGalleryFanout(b *testing.B) {
	for _, n := range []int{9, 25} {
		n := n
		b.Run(fmt.Sprintf("tiles-%d", n), func(b *testing.B) {
			parts := make([]gallery.Participant, n)
			for i := range parts {
				parts[i] = gallery.Participant{Frames: galleryLeakStream(i, 16), JoinAt: 0}
			}
			res, err := gallery.Compose(parts, gallery.Spec{Seed: int64(n)})
			if err != nil {
				b.Fatal(err)
			}
			sh, mgr := newGalleryShard(b, 4096)
			fan, _ := NewGalleryFanout(gallery.Config{Limits: gallery.SplitLimits{MaxTiles: 128}}, sh)
			// Warm through the full cycle once so every session is open
			// and the tiling is committed before the clock starts.
			for _, f := range res.Video.Frames {
				if _, err := fan.Feed(f); err != nil {
					b.Fatal(err)
				}
			}
			if mgr.Len() != n {
				b.Fatalf("%d sessions open, want %d", mgr.Len(), n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fan.Feed(res.Video.Frames[i%res.Video.Len()]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tile-feeds/s")
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "composites/s")
		})
	}
}

// BenchmarkGallerySplit isolates the demux cost (grid inference,
// voting fast path, lane matching, tile crops) without any sessions.
func BenchmarkGallerySplit(b *testing.B) {
	for _, n := range []int{9, 25} {
		n := n
		b.Run(fmt.Sprintf("tiles-%d", n), func(b *testing.B) {
			parts := make([]gallery.Participant, n)
			for i := range parts {
				parts[i] = gallery.Participant{Frames: galleryLeakStream(i, 16), JoinAt: 0}
			}
			res, err := gallery.Compose(parts, gallery.Spec{Seed: int64(n)})
			if err != nil {
				b.Fatal(err)
			}
			d := gallery.NewDemuxer(gallery.Config{Limits: gallery.SplitLimits{MaxTiles: 128}})
			for _, f := range res.Video.Frames {
				if _, err := d.Feed(f); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Feed(res.Video.Frames[i%res.Video.Len()]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
