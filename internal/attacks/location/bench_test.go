package location

import "testing"

// BenchmarkRank ranks the sparse golden reconstruction against the
// 20-entry 320x240 dictionary with the default search (25 shifts x 3
// rotations, 4000 samples).
func BenchmarkRank(b *testing.B) {
	dict := goldenDictionary()
	rec := goldenReconstructions(dict)[0]
	opts := DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Rank(rec, dict, opts); err != nil {
			b.Fatal(err)
		}
	}
}
