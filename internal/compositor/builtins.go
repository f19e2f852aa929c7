package compositor

import (
	"maps"
	"math"
	"sync"

	"github.com/bgbuster/bgbuster/internal/imagex"
)

// Built-in virtual backgrounds. These play the role of the paper's
// "default/popular virtual background images" dataset D_img (Section
// V-B): the known-VB matcher searches over them, and the evaluation uses
// "three different virtual images and two virtual videos" exactly as the
// paper's VBMR experiment does (Section VIII-B).

// BuiltinImageNames lists the built-in static virtual images.
var BuiltinImageNames = []string{"beach", "office", "space", "forest", "gradient"}

// BuiltinImage renders the named virtual image at the given geometry.
// Unknown names yield the gradient fallback.
func BuiltinImage(name string, w, h int) *imagex.Image {
	img := imagex.New(w, h)
	switch name {
	case "beach":
		renderBeach(img)
	case "office":
		renderOffice(img)
	case "space":
		renderSpace(img)
	case "forest":
		renderForest(img)
	default:
		renderGradient(img, 210)
	}
	return img
}

// builtinMemoCap bounds how many geometries' dictionaries BuiltinImages
// keeps rendered. Geometry reaches BuiltinImages from the wire (a fleet
// shard builds options per opened call), so the memo must not grow with
// the geometries callers ask for; a process serves one or a few call
// geometries, and overflowing the cap clears the memo.
const builtinMemoCap = 4

type geometry struct{ w, h int }

// builtinMemo holds the rendered dictionary per geometry. Its images are
// shared by every BuiltinImages caller and never written after rendering.
var builtinMemo struct {
	mu   sync.Mutex
	sets map[geometry]map[string]*imagex.Image
}

// BuiltinImages returns all built-in virtual images at the geometry. Each
// geometry's images are rendered once per process and shared: every call
// returns a fresh map (edit it freely), but its values are the shared
// images, which callers must not mutate. Use BuiltinImage for a private
// copy.
func BuiltinImages(w, h int) map[string]*imagex.Image {
	return maps.Clone(builtinSet(w, h))
}

func builtinSet(w, h int) map[string]*imagex.Image {
	builtinMemo.mu.Lock()
	defer builtinMemo.mu.Unlock()
	g := geometry{w, h}
	if set, ok := builtinMemo.sets[g]; ok {
		return set
	}
	if builtinMemo.sets == nil || len(builtinMemo.sets) >= builtinMemoCap {
		builtinMemo.sets = make(map[geometry]map[string]*imagex.Image, builtinMemoCap)
	}
	set := make(map[string]*imagex.Image, len(BuiltinImageNames))
	for _, n := range BuiltinImageNames {
		set[n] = BuiltinImage(n, w, h)
	}
	builtinMemo.sets[g] = set
	return set
}

// BuiltinVideo renders the named looping virtual video with the given
// geometry and loop period (frames). Unknown names yield "waves".
func BuiltinVideo(name string, w, h, period int) LoopingVideo {
	if period < 2 {
		period = 2
	}
	frames := make([]*imagex.Image, period)
	for i := range frames {
		phase := 2 * math.Pi * float64(i) / float64(period)
		img := imagex.New(w, h)
		switch name {
		case "aurora":
			renderAuroraFrame(img, phase)
		default:
			renderWavesFrame(img, phase)
		}
		frames[i] = img
	}
	return LoopingVideo{Frames: frames}
}

func renderBeach(img *imagex.Image) {
	skyline := img.H * 2 / 5
	waterline := img.H * 7 / 10
	for y := 0; y < img.H; y++ {
		var c imagex.RGB
		switch {
		case y < skyline:
			c = imagex.HSV{H: 205, S: 0.45, V: 0.95 - 0.2*float64(y)/float64(skyline)}.ToRGB()
		case y < waterline:
			c = imagex.HSV{H: 190, S: 0.6, V: 0.7}.ToRGB()
		default:
			c = imagex.HSV{H: 45, S: 0.4, V: 0.9}.ToRGB()
		}
		img.FillRect(0, y, img.W, y+1, c)
	}
	// Sun.
	img.FillCircle(img.W*4/5, skyline/2, img.H/12, imagex.RGB{R: 255, G: 230, B: 150})
}

func renderOffice(img *imagex.Image) {
	img.Fill(imagex.RGB{R: 190, G: 188, B: 182})
	// Book wall pattern.
	shelfH := img.H / 5
	for row := 0; row < 3; row++ {
		y0 := row*shelfH + img.H/10
		for x := 0; x < img.W; x += 7 {
			hue := float64((x*37 + row*91) % 360)
			c := imagex.HSV{H: hue, S: 0.55, V: 0.55}.ToRGB()
			img.FillRect(x, y0, x+5, y0+shelfH-3, c)
		}
		img.FillRect(0, y0+shelfH-3, img.W, y0+shelfH-1, imagex.RGB{R: 90, G: 60, B: 35})
	}
}

func renderSpace(img *imagex.Image) {
	img.Fill(imagex.RGB{R: 8, G: 8, B: 24})
	// Deterministic starfield from a hash of coordinates.
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			h := uint32(x*73856093) ^ uint32(y*19349663)
			if h%97 == 0 {
				v := uint8(150 + h%100)
				img.Set(x, y, imagex.RGB{R: v, G: v, B: v})
			}
		}
	}
	// A planet.
	img.FillCircle(img.W/4, img.H/3, img.H/6, imagex.RGB{R: 160, G: 80, B: 60})
}

func renderForest(img *imagex.Image) {
	img.Fill(imagex.HSV{H: 130, S: 0.5, V: 0.35}.ToRGB())
	// Tree trunks; the spacing stays positive below 5 px wide.
	for x := img.W / 10; x < img.W; x += max(1, img.W/5) {
		img.FillRect(x, img.H/4, x+img.W/30+1, img.H, imagex.RGB{R: 70, G: 45, B: 25})
		img.FillCircle(x+img.W/60, img.H/4, img.H/7, imagex.HSV{H: 120, S: 0.7, V: 0.45}.ToRGB())
	}
}

func renderGradient(img *imagex.Image, hue float64) {
	for y := 0; y < img.H; y++ {
		c := imagex.HSV{H: hue, S: 0.5, V: 0.35 + 0.5*float64(y)/float64(img.H)}.ToRGB()
		img.FillRect(0, y, img.W, y+1, c)
	}
}

func renderWavesFrame(img *imagex.Image, phase float64) {
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			v := 0.5 + 0.25*math.Sin(float64(x)/9+phase) + 0.15*math.Sin(float64(y)/6-phase)
			img.Set(x, y, imagex.HSV{H: 200, S: 0.7, V: 0.3 + 0.4*v}.ToRGB())
		}
	}
}

func renderAuroraFrame(img *imagex.Image, phase float64) {
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			band := math.Sin(float64(x)/14 + 2*math.Sin(phase) + float64(y)/20)
			hue := 140 + 60*band
			img.Set(x, y, imagex.HSV{H: hue, S: 0.8, V: 0.25 + 0.3*math.Abs(band)}.ToRGB())
		}
	}
}
