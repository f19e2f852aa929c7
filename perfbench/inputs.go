package main

import (
	"fmt"
	"math/rand"

	"github.com/bgbuster/bgbuster/internal/compositor"
	"github.com/bgbuster/bgbuster/internal/dataset"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/person"
)

// recording is one synthesized call as the attacker records it.
type recording struct {
	call *dataset.Call
	// frames are the blended frames (virtual background applied).
	frames []*imagex.Image
	// oracles are the true silhouettes, the simulated segmenter's input.
	oracles []*imagex.Mask
}

// e2Recordings synthesizes active+passive E2 calls at w×h, frames long,
// each composed by the Zoom-like compositor over a built-in virtual
// image, and hands recording i to keep as soon as it is made. Which
// calls, which images and the matting noise all come from seed, and
// nothing else.
func e2Recordings(seed int64, w, h, frames, active, passive int, keep func(i int, r *recording) error) error {
	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H, cfg.E2Frames, cfg.Seed = w, h, frames, seed
	var actives, passives []*dataset.Call
	for _, c := range dataset.E2(cfg) {
		if c.Engagement == person.EngagementActive {
			actives = append(actives, c)
		} else {
			passives = append(passives, c)
		}
	}
	if active > len(actives) || passive > len(passives) {
		return fmt.Errorf("inputs: want %d active + %d passive calls, E2 has %d + %d",
			active, passive, len(actives), len(passives))
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(actives), func(i, j int) { actives[i], actives[j] = actives[j], actives[i] })
	rng.Shuffle(len(passives), func(i, j int) { passives[i], passives[j] = passives[j], passives[i] })
	picked := append(actives[:active:active], passives[:passive]...)
	vbs := make([]string, len(picked))
	mattingSeeds := make([]int64, len(picked))
	for i := range picked {
		vbs[i] = compositor.BuiltinImageNames[rng.Intn(len(compositor.BuiltinImageNames))]
		mattingSeeds[i] = rng.Int63()
	}

	return parallel(len(picked), func(i int) error {
		r, err := picked[i].Render()
		if err != nil {
			return err
		}
		res, err := compositor.Compose(r.Raw, r.Silhouettes, compositor.Options{
			Profile: compositor.ProfileZoom(),
			Virtual: compositor.StaticImage{Img: compositor.BuiltinImage(vbs[i], w, h)},
		}, rand.New(rand.NewSource(mattingSeeds[i])))
		if err != nil {
			return fmt.Errorf("inputs: compose %s: %w", picked[i].ID, err)
		}
		return keep(i, &recording{call: picked[i], frames: res.Blended.Frames, oracles: r.Silhouettes})
	})
}

// collect is an e2Recordings keep function storing every recording.
func collect(recs []*recording) func(i int, r *recording) error {
	return func(i int, r *recording) error {
		recs[i] = r
		return nil
	}
}
