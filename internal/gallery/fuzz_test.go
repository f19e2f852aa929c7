package gallery

import (
	"testing"

	"github.com/bgbuster/bgbuster/internal/imagex"
)

// The fuzz input is a tiny composite-builder program so mutations stay
// in the space of grid-like frames instead of pixel noise:
//
//	[0] canvas width seedlet   (24 + b%104)
//	[1] canvas height seedlet  (24 + b%104)
//	[2] frame count            (1 + b%5)
//	[3] gutter gray level
//	then per frame up to 6 rect ops of 5 bytes each:
//	  x, y, w, h seedlets (mod canvas) + color seedlet
//
// Rects are painted over a gutter-colored canvas; whatever grid (or
// non-grid) that yields is fed to a bounded demuxer.
const (
	fuzzOpsPerFrame = 6
	fuzzOpBytes     = 5
)

func framesFromFuzz(data []byte) []*imagex.Image {
	if len(data) < 4 {
		return nil
	}
	w := 24 + int(data[0])%104
	h := 24 + int(data[1])%104
	n := 1 + int(data[2])%5
	g := imagex.RGB{R: data[3], G: data[3], B: data[3]}
	rest := data[4:]
	frames := make([]*imagex.Image, 0, n)
	for fi := 0; fi < n; fi++ {
		f := imagex.NewFilled(w, h, g)
		for op := 0; op < fuzzOpsPerFrame; op++ {
			base := (fi*fuzzOpsPerFrame + op) * fuzzOpBytes
			if base+fuzzOpBytes > len(rest) {
				break
			}
			b := rest[base : base+fuzzOpBytes]
			x, y := int(b[0])%w, int(b[1])%h
			rw, rh := 1+int(b[2])%w, 1+int(b[3])%h
			c := imagex.RGB{R: b[4], G: b[4] ^ 0x5a, B: 255 - b[4]}
			for yy := y; yy < y+rh && yy < h; yy++ {
				for xx := x; xx < x+rw && xx < w; xx++ {
					f.Pix[yy*w+xx] = c
				}
			}
		}
		frames = append(frames, f)
	}
	return frames
}

// fuzzSeed builds a seed program: one canvas, then per frame a list of
// (x, y, w, h, color) rects.
func fuzzSeed(w, h, gutter byte, frames [][][5]byte) []byte {
	data := []byte{w, h, byte(len(frames) - 1), gutter}
	for _, ops := range frames {
		padded := make([][5]byte, fuzzOpsPerFrame)
		copy(padded, ops)
		for _, op := range padded {
			data = append(data, op[0], op[1], op[2], op[3], op[4])
		}
	}
	return data
}

func FuzzGallerySplit(f *testing.F) {
	// A clean 2x2 grid, stable across frames.
	grid22 := [][5]byte{
		{4, 4, 20, 20, 200}, {30, 4, 20, 20, 100},
		{4, 30, 20, 20, 60}, {30, 30, 20, 20, 250},
	}
	f.Add(fuzzSeed(40, 40, 32, [][][5]byte{grid22, grid22, grid22}))
	// Gutter-colored tile interiors: two tiles painted exactly gutter
	// gray vanish into the background.
	f.Add(fuzzSeed(40, 40, 32, [][][5]byte{{
		{4, 4, 20, 20, 32}, {30, 4, 20, 20, 100},
		{4, 30, 20, 20, 32}, {30, 30, 20, 20, 250},
	}}))
	// Off-by-one grid: tiles misaligned so no clean gutter row remains.
	f.Add(fuzzSeed(40, 40, 16, [][][5]byte{{
		{4, 4, 21, 20, 200}, {29, 5, 20, 20, 100},
		{5, 29, 20, 21, 60}, {30, 30, 19, 20, 250},
	}}))
	// 1xN degenerate layout: a single row of slivers.
	f.Add(fuzzSeed(96, 24, 8, [][][5]byte{{
		{2, 4, 10, 12, 200}, {16, 4, 10, 12, 150},
		{30, 4, 10, 12, 100}, {44, 4, 10, 12, 50},
		{58, 4, 10, 12, 220}, {72, 4, 10, 12, 20},
	}}))
	// Resize flapping: the tiling alternates every frame and must
	// never commit.
	f.Add(fuzzSeed(40, 40, 32, [][][5]byte{
		{{4, 4, 20, 20, 200}, {30, 4, 20, 20, 100}},
		{{4, 4, 20, 20, 200}, {30, 4, 20, 20, 100}, {4, 30, 20, 20, 60}},
		{{4, 4, 20, 20, 200}, {30, 4, 20, 20, 100}},
		{{4, 4, 20, 20, 200}, {30, 4, 20, 20, 100}, {4, 30, 20, 20, 60}},
	}))
	// Whole canvas one tile (no margin left anywhere).
	f.Add(fuzzSeed(40, 40, 0, [][][5]byte{{{0, 0, 255, 255, 128}}}))
	// Degenerate: all gutter, no tiles at all.
	f.Add(fuzzSeed(64, 64, 200, [][][5]byte{{}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		frames := framesFromFuzz(data)
		if len(frames) == 0 {
			return
		}
		lim := SplitLimits{MaxDim: 256, MaxTiles: 16, MinTileDim: 4, MaxTotalBytes: 1 << 20, MaxPendingFrames: 4}
		cfg := Config{Limits: lim}
		d := NewDemuxer(cfg.withDefaults())
		var lastAccepted *imagex.Image
		for _, fr := range frames {
			up, err := d.Feed(fr)
			if err != nil {
				// Rejected: budgets held, state intact; keep going.
				continue
			}
			lastAccepted = fr
			// Allocation bounds: every released frame's tiles fit the
			// byte budget, and a Feed can release at most the pending
			// buffer's worth of frames.
			var total int64
			for _, lf := range up.Frames {
				total += int64(lf.Img.W) * int64(lf.Img.H) * 3
			}
			if max := lim.MaxTotalBytes * int64(lim.MaxPendingFrames); total > max {
				t.Fatalf("released %d tile bytes, budget %d", total, max)
			}
			tiling := d.Tiling()
			if len(tiling) > lim.MaxTiles {
				t.Fatalf("committed %d tiles, cap %d", len(tiling), lim.MaxTiles)
			}
			for i, r := range tiling {
				if !r.In(fr.W, fr.H) {
					t.Fatalf("committed rect %d %+v outside %dx%d", i, r, fr.W, fr.H)
				}
				if r.W < lim.MinTileDim || r.H < lim.MinTileDim {
					t.Fatalf("committed rect %d %+v below min dim", i, r)
				}
				for j, o := range tiling[:i] {
					if r.X < o.X+o.W && o.X < r.X+r.W && r.Y < o.Y+o.H && o.Y < r.Y+r.H {
						t.Fatalf("committed rects %d and %d overlap: %+v %+v", i, j, r, o)
					}
				}
			}
			if len(d.Lanes()) != len(tiling) && len(d.pending) == 0 {
				t.Fatalf("%d lanes for %d committed tiles with no pending vote", len(d.Lanes()), len(tiling))
			}
		}
		if lastAccepted == nil {
			return
		}
		// Accepted ⇒ stable tiling: replaying the last accepted frame
		// settles, after which identical frames cause no retiles,
		// flaps, joins or leaves.
		for i := 0; i < d.cfg.voteFrames()+1; i++ {
			if _, err := d.Feed(lastAccepted); err != nil {
				t.Fatalf("settling feed %d of previously accepted frame rejected: %v", i, err)
			}
		}
		before := d.Stats()
		up, err := d.Feed(lastAccepted)
		if err != nil {
			t.Fatalf("stable refeed rejected: %v", err)
		}
		after := d.Stats()
		if after.Retiles != before.Retiles || after.DroppedFlaps != before.DroppedFlaps ||
			after.Joins != before.Joins || after.Leaves != before.Leaves {
			t.Fatalf("identical frame destabilised tiling: before %+v after %+v", before, after)
		}
		if len(up.Joins)+len(up.Leaves)+len(up.Rejoins) != 0 {
			t.Fatalf("identical frame produced membership churn: %+v", up)
		}
	})
}
