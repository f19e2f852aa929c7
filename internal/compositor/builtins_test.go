package compositor

import (
	"sync"
	"testing"

	"github.com/bgbuster/bgbuster/internal/imagex"
)

// TestBuiltinImagesMatchBuiltinImage pins the shared dictionary to the
// private renderer, down to geometries too narrow for some drawings.
func TestBuiltinImagesMatchBuiltinImage(t *testing.T) {
	for _, g := range []geometry{{1, 1}, {7, 5}, {160, 120}, {320, 240}} {
		imgs := BuiltinImages(g.w, g.h)
		if len(imgs) != len(BuiltinImageNames) {
			t.Fatalf("%dx%d: %d images, want %d", g.w, g.h, len(imgs), len(BuiltinImageNames))
		}
		for _, n := range BuiltinImageNames {
			if !imgs[n].Equal(BuiltinImage(n, g.w, g.h)) {
				t.Errorf("%dx%d %q: shared image differs from BuiltinImage", g.w, g.h, n)
			}
		}
	}
}

// TestBuiltinImagesSharedReadOnly pins the sharing contract: every call
// returns its own map over the same images, so editing a returned map
// cannot reach another caller, while BuiltinImage stays private.
func TestBuiltinImagesSharedReadOnly(t *testing.T) {
	a, b := BuiltinImages(40, 30), BuiltinImages(40, 30)
	for _, n := range BuiltinImageNames {
		if a[n] != b[n] {
			t.Errorf("%q: calls at one geometry must share the image", n)
		}
		if BuiltinImage(n, 40, 30) == a[n] {
			t.Errorf("%q: BuiltinImage must render a private copy", n)
		}
	}
	beach := a["beach"]
	delete(a, "office")
	a["beach"] = imagex.New(40, 30)
	a["extra"] = imagex.New(40, 30)
	c := BuiltinImages(40, 30)
	if len(c) != len(BuiltinImageNames) || c["beach"] != beach || c["office"] == nil || c["extra"] != nil {
		t.Fatal("editing a returned map changed the next call's map")
	}
}

// TestBuiltinImagesMemoBounded requests more geometries than the memo
// keeps (as a shard fed arbitrary wire geometries would) and checks the
// memo stays within its cap.
func TestBuiltinImagesMemoBounded(t *testing.T) {
	for i := 0; i < builtinMemoCap+3; i++ {
		BuiltinImages(8+i, 6)
		builtinMemo.mu.Lock()
		n := len(builtinMemo.sets)
		builtinMemo.mu.Unlock()
		if n > builtinMemoCap {
			t.Fatalf("after %d geometries the memo holds %d, cap %d", i+1, n, builtinMemoCap)
		}
	}
}

// TestBuiltinImagesConcurrent has callers race over more geometries than
// the memo keeps, so renders, hits and clears interleave; run it under
// -race. Every caller must see fully rendered images.
func TestBuiltinImagesConcurrent(t *testing.T) {
	geoms := make([]geometry, builtinMemoCap+2)
	want := make([]map[string]*imagex.Image, len(geoms))
	for i := range geoms {
		geoms[i] = geometry{16 + i, 12}
		want[i] = map[string]*imagex.Image{}
		for _, n := range BuiltinImageNames {
			want[i][n] = BuiltinImage(n, geoms[i].w, geoms[i].h)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				i := (g + it) % len(geoms)
				imgs := BuiltinImages(geoms[i].w, geoms[i].h)
				for _, n := range BuiltinImageNames {
					if !imgs[n].Equal(want[i][n]) {
						t.Errorf("%dx%d %q: concurrent caller saw a wrong image", geoms[i].w, geoms[i].h, n)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
