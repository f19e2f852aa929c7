package gallery

import (
	"fmt"

	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/vidstream"
)

// Sink receives demuxed per-participant sub-streams. fleet.GallerySink
// implements it over a coordinator, a client or an in-process shard,
// so the demuxer stays free of the session and fleet dependencies.
//
// Calls for one composite frame arrive in event order: LeaveTile,
// OpenTile, RejoinTile, then FeedTile per released frame. Images are
// handed over for reading — implementations must not mutate them (the
// demuxer keeps each lane's last frame for content matching).
type Sink interface {
	// OpenTile starts the sub-stream for a new lane at w×h.
	OpenTile(id string, w, h int) error
	// RejoinTile resumes the sub-stream of a lane that left earlier.
	RejoinTile(id string, w, h int) error
	// FeedTile delivers one demuxed frame.
	FeedTile(id string, img *imagex.Image) error
	// LeaveTile ends (for now) the sub-stream of a departing lane.
	LeaveTile(id string) error
}

// DefaultTileID is the default lane-id → session-id mapping.
func DefaultTileID(lane int) string { return fmt.Sprintf("tile-%02d", lane) }

// Fanout drives a Sink from a Demuxer: one composite frame in, N
// per-participant deliveries out. Not safe for concurrent use.
type Fanout struct {
	demux *Demuxer
	sink  Sink
}

// NewFanout wires a demuxer with the given config to sink.
func NewFanout(cfg Config, sink Sink) *Fanout {
	return &Fanout{demux: NewDemuxer(cfg), sink: sink}
}

// TileID maps a lane id to its stable sink/session id
// (DefaultTileID). Lane ids are monotonic per demuxer, so a rejoin
// reuses its old session id.
func (f *Fanout) TileID(lane int) string { return DefaultTileID(lane) }

// Demux exposes the underlying demuxer (stats, lane inspection).
func (f *Fanout) Demux() *Demuxer { return f.demux }

// Feed ingests one composite frame and relays everything it released
// to the sink. Demux errors (limits, geometry) reject the frame but
// keep both demuxer and sink state; sink errors abort mid-sequence and
// are returned wrapped with the failing lane id.
func (f *Fanout) Feed(frame *imagex.Image) (*Update, error) {
	up, err := f.demux.Feed(frame)
	if err != nil {
		return nil, err
	}
	for _, id := range up.Leaves {
		if err := f.sink.LeaveTile(f.TileID(id)); err != nil {
			return up, fmt.Errorf("gallery: leave %s: %w", f.TileID(id), err)
		}
	}
	for _, id := range up.Joins {
		ln := f.demux.lanes[id]
		if err := f.sink.OpenTile(f.TileID(id), ln.w, ln.h); err != nil {
			return up, fmt.Errorf("gallery: open %s: %w", f.TileID(id), err)
		}
	}
	for _, id := range up.Rejoins {
		ln := f.demux.lanes[id]
		if err := f.sink.RejoinTile(f.TileID(id), ln.w, ln.h); err != nil {
			return up, fmt.Errorf("gallery: rejoin %s: %w", f.TileID(id), err)
		}
	}
	for _, lf := range up.Frames {
		if err := f.sink.FeedTile(f.TileID(lf.Lane), lf.Img); err != nil {
			return up, fmt.Errorf("gallery: feed %s: %w", f.TileID(lf.Lane), err)
		}
	}
	return up, nil
}

// LaneStream is one participant sub-stream recovered by SplitVideo.
type LaneStream struct {
	// Lane is the demuxer lane id.
	Lane int
	// Start is the composite frame index at which the lane's first
	// frame was released.
	Start int
	// Video holds the demuxed frames in order.
	Video *vidstream.Video
	// Rejoined counts how many times the lane left and came back.
	Rejoined int
}

// SplitVideo demuxes a whole composite video into per-lane
// sub-streams — the batch convenience over Demuxer for goldens, tools
// and offline analysis. Frames the demuxer rejects fail the split.
func SplitVideo(v *vidstream.Video, cfg Config) ([]*LaneStream, Stats, error) {
	d := NewDemuxer(cfg)
	byLane := map[int]*LaneStream{}
	var order []int
	for i, frame := range v.Frames {
		up, err := d.Feed(frame)
		if err != nil {
			return nil, d.Stats(), fmt.Errorf("gallery: frame %d: %w", i, err)
		}
		for _, id := range up.Rejoins {
			byLane[id].Rejoined++
		}
		for _, lf := range up.Frames {
			ls := byLane[lf.Lane]
			if ls == nil {
				ls = &LaneStream{Lane: lf.Lane, Start: i, Video: vidstream.New(v.FPS)}
				byLane[lf.Lane] = ls
				order = append(order, lf.Lane)
			}
			if err := ls.Video.Append(lf.Img); err != nil {
				return nil, d.Stats(), fmt.Errorf("gallery: lane %d at frame %d: %w", lf.Lane, i, err)
			}
		}
	}
	out := make([]*LaneStream, 0, len(order))
	for _, id := range order {
		out = append(out, byLane[id])
	}
	return out, d.Stats(), nil
}
