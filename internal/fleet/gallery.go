package fleet

import (
	"fmt"
	"hash/fnv"

	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/gallery"
	"github.com/bgbuster/bgbuster/internal/imagex"
)

// SessionAPI is the session-routing surface gallery fan-out needs,
// satisfied by *Coordinator (consistent-hash routing across shards),
// *Client (one remote shard or coordinator) and *Shard (one local
// manager, in process). One gallery meeting ingested through a
// Coordinator therefore spreads its participants across the whole
// fleet.
type SessionAPI interface {
	Open(spec OpenSpec) error
	Resume(spec OpenSpec, ckpt []byte) error
	Feed(id string, f core.Frame) error
	Detach(id string) ([]byte, error)
}

var (
	_ SessionAPI = (*Coordinator)(nil)
	_ SessionAPI = (*Client)(nil)
	_ SessionAPI = (*Shard)(nil)
)

// GallerySink adapts a SessionAPI into a gallery.Sink: joins open
// shard-routed sessions, demuxed tiles feed them (with an empty oracle
// — a composite carries no silhouette ground truth), leaves detach
// them (drain-without-finalize, so identification is never pinned on a
// short appearance), and rejoins resume from the detach snapshot. Not
// safe for concurrent use — drive it from one gallery.Fanout.
type GallerySink struct {
	api SessionAPI
	// SpecFor customizes the OpenSpec for a joining tile id (nil:
	// known-VB attack with a per-id FNV seed).
	SpecFor func(id string, w, h int) OpenSpec

	oracles  map[string]*imagex.Mask
	detached map[string][]byte
}

// NewGallerySink returns a sink feeding api.
func NewGallerySink(api SessionAPI) *GallerySink {
	return &GallerySink{
		api:      api,
		oracles:  map[string]*imagex.Mask{},
		detached: map[string][]byte{},
	}
}

// NewGalleryFanout wires a composite demuxer to a fleet: one Feed per
// composite frame drives tens of shard-routed sessions.
func NewGalleryFanout(cfg gallery.Config, api SessionAPI) (*gallery.Fanout, *GallerySink) {
	sink := NewGallerySink(api)
	return gallery.NewFanout(cfg, sink), sink
}

func (gs *GallerySink) spec(id string, w, h int) OpenSpec {
	if gs.SpecFor != nil {
		return gs.SpecFor(id, w, h)
	}
	h64 := fnv.New64a()
	h64.Write([]byte(id))
	return OpenSpec{ID: id, W: w, H: h, Seed: int64(h64.Sum64() >> 1)}
}

// OpenTile implements gallery.Sink.
func (gs *GallerySink) OpenTile(id string, w, h int) error {
	gs.oracles[id] = imagex.NewMask(w, h)
	return gs.api.Open(gs.spec(id, w, h))
}

// RejoinTile implements gallery.Sink.
func (gs *GallerySink) RejoinTile(id string, w, h int) error {
	data, ok := gs.detached[id]
	if !ok {
		return fmt.Errorf("fleet: gallery rejoin %q: no detach snapshot", id)
	}
	gs.oracles[id] = imagex.NewMask(w, h)
	if err := gs.api.Resume(gs.spec(id, w, h), data); err != nil {
		return err
	}
	delete(gs.detached, id)
	return nil
}

// FeedTile implements gallery.Sink.
func (gs *GallerySink) FeedTile(id string, img *imagex.Image) error {
	oracle := gs.oracles[id]
	if oracle == nil || oracle.W != img.W || oracle.H != img.H {
		oracle = imagex.NewMask(img.W, img.H)
		gs.oracles[id] = oracle
	}
	return gs.api.Feed(id, core.Frame{Img: img, Oracle: oracle})
}

// LeaveTile implements gallery.Sink.
func (gs *GallerySink) LeaveTile(id string) error {
	data, err := gs.api.Detach(id)
	if err != nil {
		return fmt.Errorf("fleet: gallery leave %q: %w", id, err)
	}
	gs.detached[id] = data
	return nil
}

// Detached returns the held detach snapshot for id, if any — the bytes
// a departed participant would resume from.
func (gs *GallerySink) Detached(id string) ([]byte, bool) {
	data, ok := gs.detached[id]
	return data, ok
}
