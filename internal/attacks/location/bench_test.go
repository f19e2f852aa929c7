package location

import (
	"math/rand"
	"testing"

	"github.com/bgbuster/bgbuster/internal/scene"
)

// BenchmarkRank ranks each golden reconstruction (sparse, shifted,
// noise) against the 20-entry 320x240 golden dictionary, and the sparse
// one against a 200-entry dictionary, the paper's scale, all with the
// default search (25 shifts x 3 rotations, 4000 samples).
func BenchmarkRank(b *testing.B) {
	dict := goldenDictionary()
	recs := goldenReconstructions(dict)
	opts := DefaultOptions()
	for k, name := range []string{"sparse", "shifted", "noise"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Rank(recs[k], dict, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("dict=200", func(b *testing.B) {
		big := append(Dictionary(nil), dict...)
		for i := len(big); i < 200; i++ {
			s := scene.Generate(scene.Config{W: 320, H: 240, Clutter: 0.8}, rand.New(rand.NewSource(int64(4000+i))))
			big = append(big, Entry{Name: nameOf(i), Background: s.Base})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Rank(recs[0], big, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
