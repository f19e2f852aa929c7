// Package scene generates synthetic room backgrounds for simulated video
// calls. Each scene carries a ground-truth inventory of the objects it
// contains (kind, bounding box, dominant hue, any rendered text), which
// the evaluation harness uses to score the object-tracking, generic
// object-detection and text-inference attacks without human labeling.
//
// This package is the substitute for the paper's real participant rooms
// (E1/E2) and in-the-wild YouTube backdrops (E3); see DESIGN.md §2.
package scene

import (
	"fmt"
	"math/rand"

	"github.com/bgbuster/bgbuster/internal/imagex"
)

// ObjectKind enumerates the object vocabulary the generator can plant.
// The generic-detection attack (paper §VI) reports detections over the
// same vocabulary.
type ObjectKind int

// Object kinds. The set mirrors the objects the paper actually detected
// in participant backgrounds: books, bookshelves, TVs, monitors, clocks,
// posters, windows, doors, and sticky notes carrying text.
const (
	KindBook ObjectKind = iota + 1
	KindBookshelf
	KindTV
	KindMonitor
	KindClock
	KindPoster
	KindStickyNote
	KindWindow
	KindDoor
	KindShirt
)

// String returns the lower-case label used in reports.
func (k ObjectKind) String() string {
	switch k {
	case KindBook:
		return "book"
	case KindBookshelf:
		return "bookshelf"
	case KindTV:
		return "tv"
	case KindMonitor:
		return "monitor"
	case KindClock:
		return "clock"
	case KindPoster:
		return "poster"
	case KindStickyNote:
		return "sticky-note"
	case KindWindow:
		return "window"
	case KindDoor:
		return "door"
	case KindShirt:
		return "shirt"
	default:
		return fmt.Sprintf("object(%d)", int(k))
	}
}

// Object is a ground-truth inventory entry: what was planted and where.
type Object struct {
	Kind ObjectKind
	// Bounding box, x1/y1 exclusive.
	X0, Y0, X1, Y1 int
	// Hue is the dominant hue of the object in degrees, used as the
	// object-tracking template signature.
	Hue float64
	// Text is the string rendered on the object (sticky notes, posters);
	// empty otherwise.
	Text string
}

// Scene is a generated room background: the fully lit base raster plus
// the object inventory.
type Scene struct {
	W, H int
	// Base is the background image under full lighting.
	Base *imagex.Image
	// Objects is the ground-truth inventory.
	Objects []Object
	// WallHue is the dominant hue of the wall paint, used by the person
	// renderer to choose apparel similar or contrasting to the wall.
	WallHue float64
}

// Config controls scene generation.
type Config struct {
	W, H int
	// Clutter in [0,1] scales how many optional objects are placed.
	Clutter float64
	// StickyText, when non-empty, forces a sticky note carrying the text.
	StickyText string
	// ForceKinds lists object kinds that must be present regardless of
	// clutter level.
	ForceKinds []ObjectKind
}

// DefaultConfig returns the geometry used across the simulator unless an
// experiment overrides it.
func DefaultConfig() Config {
	return Config{W: 160, H: 120, Clutter: 0.6}
}

// Generate builds a deterministic scene from cfg and rng. It panics on a
// non-positive geometry (caller bug); all other inputs are clamped.
func Generate(cfg Config, rng *rand.Rand) *Scene {
	if cfg.W <= 0 || cfg.H <= 0 {
		panic(fmt.Sprintf("scene: invalid size %dx%d", cfg.W, cfg.H))
	}
	if cfg.Clutter < 0 {
		cfg.Clutter = 0
	}
	if cfg.Clutter > 1 {
		cfg.Clutter = 1
	}

	s := &Scene{W: cfg.W, H: cfg.H, Base: imagex.New(cfg.W, cfg.H)}

	// Wall paint: muted hue, low-to-mid saturation.
	s.WallHue = rng.Float64() * 360
	wall := imagex.HSV{H: s.WallHue, S: 0.08 + rng.Float64()*0.22, V: 0.55 + rng.Float64()*0.35}.ToRGB()
	s.Base.Fill(wall)
	s.addWallTexture(rng, wall)

	// Floor / desk band at the bottom.
	deskTop := cfg.H - cfg.H/6
	desk := imagex.HSV{H: 25 + rng.Float64()*20, S: 0.45 + rng.Float64()*0.2, V: 0.3 + rng.Float64()*0.25}.ToRGB()
	s.Base.FillRect(0, deskTop, cfg.W, cfg.H, desk)

	forced := map[ObjectKind]bool{}
	for _, k := range cfg.ForceKinds {
		forced[k] = true
	}
	if cfg.StickyText != "" {
		forced[KindStickyNote] = true
	}

	place := func(k ObjectKind, prob float64) {
		if forced[k] || rng.Float64() < prob*cfg.Clutter {
			s.placeObject(k, cfg, rng)
		}
	}
	place(KindWindow, 0.55)
	place(KindDoor, 0.45)
	place(KindBookshelf, 0.6)
	place(KindTV, 0.35)
	place(KindMonitor, 0.45)
	place(KindClock, 0.5)
	place(KindPoster, 0.65)
	place(KindStickyNote, 0.4)
	place(KindShirt, 0.3)

	// Forced sticky note text overrides the random text of the last
	// sticky note placed.
	if cfg.StickyText != "" {
		for i := len(s.Objects) - 1; i >= 0; i-- {
			if s.Objects[i].Kind == KindStickyNote {
				s.renderStickyText(i, cfg.StickyText)
				break
			}
		}
	}
	return s
}

// addWallTexture adds faint large-scale tonal variation so walls are not
// perfectly uniform (uniform walls make the leak-detection problem
// artificially easy for the hue matcher).
func (s *Scene) addWallTexture(rng *rand.Rand, wall imagex.RGB) {
	blobs := 3 + rng.Intn(4)
	for i := 0; i < blobs; i++ {
		cx, cy := rng.Intn(s.W), rng.Intn(s.H)
		r := s.W/8 + rng.Intn(s.W/6+1)
		delta := 1.0 + rng.Float64()*0.08
		if rng.Intn(2) == 0 {
			delta = 1.0 - rng.Float64()*0.08
		}
		tint := imagex.RGB{
			R: scaleChan(wall.R, delta),
			G: scaleChan(wall.G, delta),
			B: scaleChan(wall.B, delta),
		}
		s.Base.FillEllipse(cx, cy, r, r, tint)
	}
}

func scaleChan(v uint8, f float64) uint8 {
	x := float64(v) * f
	if x > 255 {
		x = 255
	}
	if x < 0 {
		x = 0
	}
	return uint8(x)
}

// Lit returns a copy of the base image under the given lighting factor;
// 1.0 is fully lit (lights ON), the paper's lights-OFF condition maps to
// roughly 0.45.
func (s *Scene) Lit(light float64) *imagex.Image {
	out := s.Base.Clone()
	if light != 1.0 {
		out.ScaleBrightness(light)
	}
	return out
}

// Find returns all inventory objects of the given kind.
func (s *Scene) Find(kind ObjectKind) []Object {
	var out []Object
	for _, o := range s.Objects {
		if o.Kind == kind {
			out = append(out, o)
		}
	}
	return out
}

// Template returns a cropped copy of the base image covering the
// object's bounding box — the "array of pixels describing the desired
// object" that the specific-object-tracking attack assumes the adversary
// possesses.
func (s *Scene) Template(o Object) *imagex.Image {
	return s.Base.Crop(o.X0, o.Y0, o.X1, o.Y1)
}
