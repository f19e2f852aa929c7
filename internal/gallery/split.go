package gallery

import (
	"errors"
	"fmt"
	"sort"

	"github.com/bgbuster/bgbuster/internal/imagex"
)

// ErrLimit reports a composite frame that exceeds the split budgets.
// The frame is rejected before any tile allocation; the demuxer keeps
// its prior state and later frames may still be accepted.
var ErrLimit = errors.New("gallery: split limit exceeded")

// ErrGeometry reports a composite frame whose geometry differs from
// the stream's locked canvas.
var ErrGeometry = errors.New("gallery: composite geometry changed mid-stream")

// SplitLimits bounds what a composite frame may make the demuxer
// allocate, in the spirit of vidstream.DecodeLimits: every budget is
// checked before the corresponding allocation, so a crafted composite
// can never balloon memory. The zero value selects the defaults.
type SplitLimits struct {
	// MaxDim caps the composite width and height (<=0: 8192).
	MaxDim int
	// MaxTiles caps tiles detected per frame (<=0: 64). One tile is one
	// supervised session downstream, so this is also the fan-out cap.
	MaxTiles int
	// MinTileDim rejects tilings with any side below this (<=0: 4) —
	// noise-sized cells are never real participants and a flood of them
	// is the cheapest way to inflate the tile count.
	MinTileDim int
	// MaxTotalBytes caps the per-frame sum of tile pixel bytes
	// (<=0: 256 MiB). Detected tiles are disjoint sub-rects, so this
	// also bounds each buffered pending frame.
	MaxTotalBytes int64
	// MaxPendingFrames caps the stability-voting buffer (<=0: 8). The
	// vote count is min(2, MaxPendingFrames).
	MaxPendingFrames int
}

func (l SplitLimits) withDefaults() SplitLimits {
	if l.MaxDim <= 0 {
		l.MaxDim = 8192
	}
	if l.MaxTiles <= 0 {
		l.MaxTiles = 64
	}
	if l.MinTileDim <= 0 {
		l.MinTileDim = 4
	}
	if l.MaxTotalBytes <= 0 {
		l.MaxTotalBytes = 256 << 20
	}
	if l.MaxPendingFrames <= 0 {
		l.MaxPendingFrames = 8
	}
	return l
}

// Config tunes the demuxer. The zero value selects the defaults.
type Config struct {
	Limits SplitLimits
	// Rejoin also matches unassigned tiles against departed lanes, so a
	// participant who drops and comes back resumes their lane id.
	Rejoin bool
}

func (c Config) withDefaults() Config {
	c.Limits = c.Limits.withDefaults()
	return c
}

// voteFrames is how many consecutive frames must agree on a new tiling
// before it is committed, bounded by the pending buffer. Frames observed
// while a tiling is pending are buffered and replayed on commit, so
// voting costs latency, never frames.
func (c Config) voteFrames() int { return min(2, c.Limits.MaxPendingFrames) }

// minMatchFrac is the fraction of a tile's pixels that must equal a
// lane's last frame exactly for the tile to stay on (or be matched to)
// that lane. Tiles matching no lane this well become new lanes (joins).
const minMatchFrac = 0.5

// LaneFrame is one demuxed tile frame attributed to a lane.
type LaneFrame struct {
	// Lane is the stable lane id (monotonic from 0 per demuxer).
	Lane int
	// Slot is the tile's ordinal in the committed tiling.
	Slot int
	// Img is the exact crop — bit-identical to what the compositor
	// blitted, never resampled.
	Img *imagex.Image
}

// Update is what one composite frame produced. Slices are in event
// order: consume Leaves, then Joins, then Rejoins, then Frames.
// Because of stability voting a single Feed can release several
// buffered frames at once (Frames spans them in time order) or none
// (the frame is pending).
type Update struct {
	// Leaves lists lane ids whose participants left the composite.
	Leaves []int
	// Joins lists new lane ids, each sized W×H of its slot rect.
	Joins []int
	// Rejoins lists departed lane ids that re-entered (Config.Rejoin).
	Rejoins []int
	// Frames holds demuxed tile frames in emission order.
	Frames []LaneFrame
	// DroppedFlaps counts buffered frames discarded because their
	// candidate tiling lost the stability vote.
	DroppedFlaps int
}

// Stats are cumulative demuxer counters.
type Stats struct {
	Frames       int
	Rejected     int
	Retiles      int
	Joins        int
	Leaves       int
	Rejoins      int
	DroppedFlaps int
	Pending      int
}

// lane is one tracked participant sub-stream.
type lane struct {
	id   int
	w, h int
	// last is the most recent frame emitted for this lane; content
	// matching anchors on it.
	last *imagex.Image
}

// pendingFrame is a buffered frame awaiting a stability vote: the
// tiles are already cropped (under the byte budget) so commit can
// replay without re-reading the composite.
type pendingFrame struct {
	tiles []*imagex.Image
}

// Demuxer splits an untrusted composite stream into per-participant
// sub-streams: grid inference from gutter runs, temporal stability
// voting with pending-frame replay, and content-based lane tracking
// across retiles and slot shuffles. Not safe for concurrent use.
type Demuxer struct {
	cfg  Config
	w, h int // canvas, locked on first accepted frame

	committed []Rect
	slotLane  []int // committed slot -> lane id

	pendingTiling []Rect
	pending       []pendingFrame

	lanes    map[int]*lane
	departed map[int]*lane
	nextLane int

	stats Stats
}

// NewDemuxer returns a demuxer with resolved config.
func NewDemuxer(cfg Config) *Demuxer {
	return &Demuxer{
		cfg:      cfg.withDefaults(),
		lanes:    map[int]*lane{},
		departed: map[int]*lane{},
	}
}

// Stats returns a snapshot of the cumulative counters.
func (d *Demuxer) Stats() Stats {
	s := d.stats
	s.Pending = len(d.pending)
	return s
}

// Tiling returns a copy of the committed tile rectangles.
func (d *Demuxer) Tiling() []Rect {
	out := make([]Rect, len(d.committed))
	copy(out, d.committed)
	return out
}

// Lanes returns the active lane ids in ascending order.
func (d *Demuxer) Lanes() []int {
	ids := make([]int, 0, len(d.lanes))
	for id := range d.lanes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Feed ingests one composite frame and returns what it released. A
// rejected frame (limits, geometry) returns an error and leaves the
// demuxer state untouched.
func (d *Demuxer) Feed(frame *imagex.Image) (*Update, error) {
	if frame == nil {
		return nil, fmt.Errorf("gallery: nil composite frame")
	}
	lim := d.cfg.Limits
	if frame.W > lim.MaxDim || frame.H > lim.MaxDim {
		d.stats.Rejected++
		return nil, fmt.Errorf("%w: composite %dx%d exceeds max dim %d", ErrLimit, frame.W, frame.H, lim.MaxDim)
	}
	if d.w == 0 {
		d.w, d.h = frame.W, frame.H
	} else if frame.W != d.w || frame.H != d.h {
		d.stats.Rejected++
		return nil, fmt.Errorf("%w: got %dx%d, canvas is %dx%d", ErrGeometry, frame.W, frame.H, d.w, d.h)
	}

	tiling, err := d.inferTiling(frame)
	if err != nil {
		d.stats.Rejected++
		return nil, err
	}
	d.stats.Frames++
	up := &Update{}

	switch {
	case rectsEqual(tiling, d.committed):
		// Stable tiling. Any pending candidate lost its vote.
		if len(d.pending) > 0 {
			up.DroppedFlaps += len(d.pending)
			d.clearPending()
		}
		tiles, err := cropTiles(frame, tiling)
		if err != nil {
			return nil, err
		}
		d.emit(up, tiles)
	case rectsEqual(tiling, d.pendingTiling):
		// Another vote for the candidate tiling; buffer the frame.
		tiles, err := cropTiles(frame, tiling)
		if err != nil {
			return nil, err
		}
		d.pending = append(d.pending, pendingFrame{tiles: tiles})
		if len(d.pending) >= d.cfg.voteFrames() {
			d.commit(up)
		}
	default:
		// A new candidate tiling; restart the vote.
		if len(d.pending) > 0 {
			up.DroppedFlaps += len(d.pending)
			d.clearPending()
		}
		tiles, err := cropTiles(frame, tiling)
		if err != nil {
			return nil, err
		}
		d.pendingTiling = tiling
		d.pending = append(d.pending, pendingFrame{tiles: tiles})
		if len(d.pending) >= d.cfg.voteFrames() {
			d.commit(up)
		}
	}
	d.stats.DroppedFlaps += up.DroppedFlaps
	return up, nil
}

func (d *Demuxer) clearPending() {
	d.pending = nil
	d.pendingTiling = nil
}

// commit promotes the pending tiling, reassigns lanes by content
// against the first buffered frame, and replays every buffered frame.
func (d *Demuxer) commit(up *Update) {
	d.committed = d.pendingTiling
	d.stats.Retiles++
	first := d.pending[0]
	d.rematch(up, first.tiles)
	for _, pf := range d.pending {
		d.emit(up, pf.tiles)
	}
	d.clearPending()
}

// emit attributes one frame's tiles to lanes and appends LaneFrames.
// On the fast path every tile still matches its assigned lane; any
// instability triggers a full content rematch (slot shuffles under the
// active-speaker variant land here).
func (d *Demuxer) emit(up *Update, tiles []*imagex.Image) {
	if len(tiles) != len(d.slotLane) {
		// Only reachable via commit, which rematches first.
		d.rematch(up, tiles)
	} else {
		for slot, img := range tiles {
			ln := d.lanes[d.slotLane[slot]]
			if ln == nil || !d.matches(img, ln) {
				d.rematch(up, tiles)
				break
			}
		}
	}
	for slot, img := range tiles {
		ln := d.lanes[d.slotLane[slot]]
		ln.last = img
		up.Frames = append(up.Frames, LaneFrame{Lane: ln.id, Slot: slot, Img: img})
	}
}

// matches reports whether a tile's content plausibly continues a lane.
func (d *Demuxer) matches(img *imagex.Image, ln *lane) bool {
	if img.W != ln.w || img.H != ln.h {
		return false
	}
	need := int(minMatchFrac * float64(img.W*img.H))
	return ln.last.MatchCount(img) >= need
}

// matchScore is the fraction of matching pixels, or -1 on geometry
// mismatch.
func (d *Demuxer) matchScore(img *imagex.Image, ln *lane) float64 {
	if img.W != ln.w || img.H != ln.h {
		return -1
	}
	return float64(ln.last.MatchCount(img)) / float64(img.W*img.H)
}

type pairScore struct {
	slot, laneID int
	rejoin       bool
	score        float64
}

// rematch recomputes the slot→lane assignment from tile content:
// deterministic greedy over all (tile, lane) pairs sorted by score,
// ties broken by slot then lane id. Unmatched lanes leave; unmatched
// tiles rejoin a departed lane (when enabled and matching) or join as
// new lanes.
func (d *Demuxer) rematch(up *Update, tiles []*imagex.Image) {
	var pairs []pairScore
	score := func(slot int, img *imagex.Image, ln *lane, rejoin bool) {
		if s := d.matchScore(img, ln); s >= minMatchFrac {
			pairs = append(pairs, pairScore{slot: slot, laneID: ln.id, rejoin: rejoin, score: s})
		}
	}
	for slot, img := range tiles {
		for _, ln := range d.lanes {
			score(slot, img, ln, false)
		}
		if d.cfg.Rejoin {
			for _, ln := range d.departed {
				score(slot, img, ln, true)
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		a, b := pairs[i], pairs[j]
		if a.score != b.score {
			return a.score > b.score
		}
		if a.slot != b.slot {
			return a.slot < b.slot
		}
		return a.laneID < b.laneID
	})

	assigned := make([]int, len(tiles))
	for i := range assigned {
		assigned[i] = -1
	}
	usedLane := map[int]bool{}
	for _, p := range pairs {
		if assigned[p.slot] >= 0 || usedLane[p.laneID] {
			continue
		}
		assigned[p.slot] = p.laneID
		usedLane[p.laneID] = true
		if p.rejoin {
			ln := d.departed[p.laneID]
			delete(d.departed, p.laneID)
			d.lanes[p.laneID] = ln
			up.Rejoins = append(up.Rejoins, p.laneID)
			d.stats.Rejoins++
		}
	}

	// Lanes nobody claimed have left the composite.
	for _, id := range d.Lanes() {
		if !usedLane[id] {
			ln := d.lanes[id]
			delete(d.lanes, id)
			d.departed[id] = ln
			up.Leaves = append(up.Leaves, id)
			d.stats.Leaves++
		}
	}
	// Tiles nobody owns are new participants.
	for slot, img := range tiles {
		if assigned[slot] >= 0 {
			continue
		}
		id := d.nextLane
		d.nextLane++
		d.lanes[id] = &lane{id: id, w: img.W, h: img.H, last: img}
		assigned[slot] = id
		up.Joins = append(up.Joins, id)
		d.stats.Joins++
	}
	d.slotLane = assigned
}

// inferTiling detects the tile grid of one composite frame from gutter
// runs: the corner pixel gives the gutter color (the grammar keeps at
// least a one-pixel margin); fully-gutter pixel rows separate tile row
// bands, and per-band fully-gutter columns separate the tiles of that
// band, which handles centered short rows. Limits are enforced before
// any tile allocation.
func (d *Demuxer) inferTiling(frame *imagex.Image) ([]Rect, error) {
	lim := d.cfg.Limits
	g := frame.Pix[0]

	rowGutter := func(y int) bool {
		row := frame.Pix[y*frame.W : (y+1)*frame.W]
		for _, p := range row {
			if p != g {
				return false
			}
		}
		return true
	}
	colGutter := func(x, y0, y1 int) bool {
		for y := y0; y < y1; y++ {
			if frame.Pix[y*frame.W+x] != g {
				return false
			}
		}
		return true
	}

	var rects []Rect
	var total int64
	y := 0
	for y < frame.H {
		if rowGutter(y) {
			y++
			continue
		}
		// Band of non-gutter rows [y0, y1).
		y0 := y
		for y < frame.H && !rowGutter(y) {
			y++
		}
		y1 := y
		x := 0
		for x < frame.W {
			if colGutter(x, y0, y1) {
				x++
				continue
			}
			x0 := x
			for x < frame.W && !colGutter(x, y0, y1) {
				x++
			}
			w, h := x-x0, y1-y0
			if w < lim.MinTileDim || h < lim.MinTileDim {
				return nil, fmt.Errorf("%w: %dx%d tile below min dim %d", ErrLimit, w, h, lim.MinTileDim)
			}
			if len(rects) >= lim.MaxTiles {
				return nil, fmt.Errorf("%w: more than %d tiles", ErrLimit, lim.MaxTiles)
			}
			total += int64(w) * int64(h) * 3
			if total > lim.MaxTotalBytes {
				return nil, fmt.Errorf("%w: tile bytes %d exceed budget %d", ErrLimit, total, lim.MaxTotalBytes)
			}
			rects = append(rects, Rect{X: x0, Y: y0, W: w, H: h})
		}
	}
	return rects, nil
}

// cropTiles cuts the detected rects out of the frame. The rects passed
// in always come from inferTiling on this frame, so bounds and budgets
// already hold.
func cropTiles(frame *imagex.Image, tiling []Rect) ([]*imagex.Image, error) {
	tiles := make([]*imagex.Image, len(tiling))
	for i, r := range tiling {
		img := frame.Crop(r.X, r.Y, r.X+r.W, r.Y+r.H)
		if img == nil || img.W != r.W || img.H != r.H {
			return nil, fmt.Errorf("gallery: crop slot %d rect %+v out of %dx%d", i, r, frame.W, frame.H)
		}
		tiles[i] = img
	}
	return tiles, nil
}

func rectsEqual(a, b []Rect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
