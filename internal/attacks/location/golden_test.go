package location

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/scene"
)

// goldenDictionary generates the 20-entry 320x240 dictionary the golden
// ranking and BenchmarkRank run against.
func goldenDictionary() Dictionary {
	dict := make(Dictionary, 0, 20)
	for i := 0; i < 20; i++ {
		s := scene.Generate(scene.Config{W: 320, H: 240, Clutter: 0.8}, rand.New(rand.NewSource(int64(4000+i))))
		dict = append(dict, Entry{Name: nameOf(i), Background: s.Base})
	}
	return dict
}

// keepRandom builds a reconstruction holding each pixel of img with
// probability p, drawn from one seeded generator in raster order.
func keepRandom(img *imagex.Image, seed int64, p float64) *core.Reconstruction {
	rng := rand.New(rand.NewSource(seed))
	rec := &core.Reconstruction{Recovered: imagex.New(img.W, img.H), Coverage: imagex.NewMask(img.W, img.H)}
	for i, c := range img.Pix {
		if rng.Float64() < p {
			rec.Coverage.SetI(i, true)
			rec.Recovered.Pix[i] = c
		}
	}
	return rec
}

// goldenReconstructions returns the three ranked inputs: sparse random
// coverage of entry 7, entry 3 shifted by (3,2) and darkened 30 %, and
// an image of uniformly random colours.
func goldenReconstructions(dict Dictionary) []*core.Reconstruction {
	sparse := keepRandom(dict[7].Background, 11, 0.2)

	truth := dict[3].Background
	shifted := imagex.New(truth.W, truth.H)
	for y := 0; y < truth.H; y++ {
		for x := 0; x < truth.W; x++ {
			shifted.Set(x, y, truth.At(x-3, y-2))
		}
	}
	shifted.ScaleBrightness(0.7)

	rng := rand.New(rand.NewSource(13))
	noise := imagex.New(truth.W, truth.H)
	for i := range noise.Pix {
		v := rng.Uint32()
		noise.Pix[i] = imagex.RGB{R: uint8(v), G: uint8(v >> 8), B: uint8(v >> 16)}
	}
	return []*core.Reconstruction{sparse, keepRandom(shifted, 12, 0.4), keepRandom(noise, 14, 0.5)}
}

// formatMatches renders a ranking one match per line, the score as its
// exact float64 bits.
func formatMatches(ms []Match) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "%s %016x %d %d %v\n", m.Name, math.Float64bits(m.Score), m.ShiftX, m.ShiftY, m.Rotation)
	}
	return b.String()
}

// TestRankGolden pins Rank's full result — order, score bits and best
// transform of every entry — on three reconstructions, so any change
// to the colour kernels or the transform search must be bit-exact.
func TestRankGolden(t *testing.T) {
	dict := goldenDictionary()
	for k, rec := range goldenReconstructions(dict) {
		ms, err := Rank(rec, dict, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got := formatMatches(ms); got != goldenRank[k] {
			t.Errorf("reconstruction %d ranking changed:\ngot:\n%swant:\n%s", k, got, goldenRank[k])
		}
	}
}

// goldenRank holds each reconstruction's ranking as formatMatches
// prints it, recorded from the original per-pixel ToHSV, Mod-based hue
// distance and per-shift rotation.
var goldenRank = [3]string{
	`Ha 3ff0000000000000 0 0 0
Aa 3fe18a1ee05e69ce 4 0 0
Oa 3fd0861d68057f1b -4 0 0
Ba 3fcd7fc2d1169a30 -2 0 0
Ra 3fcd4395c8f8a884 4 0 0
Qa 3fcc451ab30afe6e -2 0 0
Na 3fcc07690c6b5013 4 0 0
Ia 3fcb57c1f90057d4 4 0 0
Ka 3fca3f674949f880 2 0 0
Ea 3fc92a1a21e00f7c -2 -4 0
Pa 3fc8fddb5c0425e3 -2 -4 0
Sa 3fc8b6b6077fd45e 2 0 0
Fa 3fc8467851654437 -2 0 0
La 3fc7e8ea26c01a62 -4 0 0
Ta 3fc6f394afed5640 4 0 0
Ga 3fc67f7d1a3f6749 2 0 0
Da 3fc5e20b4491a855 -4 0 0
Ca 3fc5ddb8b8fea3c6 0 0 0
Ja 3fc56845609f8373 -2 0 0
Ma 3fc533d406483ed2 -2 0 0
`,
	`Da 3feec7d1813ed2e3 -4 -2 0
Ma 3fe9ad86c7d1813f 0 -2 0
Oa 3fdf7f95b9b42b2d -4 -2 0
Fa 3fcc8185ac6b61b2 0 0 0
Pa 3fcbe45ad58b7ecd 4 -4 0
Ga 3fca384515730bfa 2 -2 0
Aa 3fc9e184cf9bfce9 4 -2 0
Ba 3fc89e3962553d90 2 -2 0
Ea 3fc7970fa7fc9d69 4 -4 0
Ta 3fc71bf3d29ca4f2 -4 -2 0
Ia 3fc71b521a44683a 4 0 0
Na 3fc6b1ad86c7d181 -4 -2 0
Ca 3fc6947914ffee05 4 -2 0
Sa 3fc68e40c2d635b1 0 -2 0
Ka 3fc66ad3fee499e0 -4 0 0
Ja 3fc63e8c09f6971c -4 -2 0
Ha 3fc635b0d8fa3028 0 -2 0
Qa 3fc61b1f4604fb4c -4 -2 0
Ra 3fc57dc9a3b6ad32 4 -2 0
La 3fc51ae6397364a5 4 -2 0
`,
	`Ja 3fbb5676aced59db 4 4 -4
Ma 3fbb2d57961b997d 4 2 -4
Ba 3fbadf91b1598de5 -4 -4 4
Ta 3fba7d74fae9f5d4 4 4 -4
Ka 3fba4ffedf0e7617 2 4 -4
Fa 3fba4bcb68692f2e 4 -2 -4
Ra 3fba1d23f7d5c474 4 4 4
Da 3fba038181eda10f 0 -2 -4
Ha 3fb9ca4e3762b8c2 4 -4 -4
Ca 3fb9bbcc8866ef32 4 -2 -4
Sa 3fb9a0cf47407e2b -4 -4 -4
Na 3fb922a3e857de34 -4 4 4
Pa 3fb856582db63651 2 4 -4
Aa 3fb8223c7982b376 4 2 4
Oa 3fb804855e601215 4 4 -4
Ea 3fb7e6d71d900a10 4 4 0
Ia 3fa473cdf981473d 0 4 0
Ga 3fa14428f00e7b3b -4 4 0
Qa 3f98bfce8062ff3a 2 2 -4
La 3f92ea78fa24476e -4 4 -4
`,
}
