// Package fleet shards the live-call session layer across processes: a
// stdlib-only wire protocol (net + the repo's binary codecs) carries
// frame ingest, snapshot queries and checkpoint transfer between a
// coordinator and worker shards, and checkpoint-based live migration
// moves a running session between shards without losing a bit — the
// .bbck bit-identical resume guarantee (DESIGN.md §11) makes the
// migration lossless, and the same transfer path re-resumes every
// session of a lost shard on the survivors (DESIGN.md §15).
package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/bgbuster/bgbuster/internal/binfmt"
	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/imagex"
)

// Magic opens every wire message; Version is the protocol revision.
const (
	Magic   = "BBFL"
	Version = 1
)

// headerLen is the fixed message prelude: magic(4) version(2) type(1)
// reserved(1) bodyLen(4).
const headerLen = 12

// ErrBadMessage is wrapped by every structural decode rejection:
// wrong magic, unknown type, truncated or oversized sections, trailing
// bytes, non-canonical flags. A decoder never panics and never
// allocates more than the advertised (and budget-checked) sizes.
var ErrBadMessage = errors.New("fleet: bad message")

// ErrVersion rejects messages from an incompatible protocol revision.
var ErrVersion = errors.New("fleet: unsupported protocol version")

// MsgType discriminates wire messages. Requests are < 0x40, responses
// >= 0x40.
type MsgType uint8

const (
	// MsgOpen opens a fresh session from an OpenSpec.
	MsgOpen MsgType = 0x01
	// MsgFeed delivers one frame (Frames[0]) to a session.
	MsgFeed MsgType = 0x02
	// MsgFeedBatch delivers an ordered frame batch as one intake unit.
	MsgFeedBatch MsgType = 0x03
	// MsgSnapshot asks for a session's observability snapshot.
	MsgSnapshot MsgType = 0x04
	// MsgCheckpoint asks for a session's current canonical .bbck bytes
	// (the session keeps running) — the replication primitive.
	MsgCheckpoint MsgType = 0x05
	// MsgResume registers a session from checkpoint bytes under the
	// spec's id — the receiving half of migration and shard recovery.
	MsgResume MsgType = 0x06
	// MsgClose finalizes and unregisters a session.
	MsgClose MsgType = 0x07
	// MsgDetach drains and removes a session WITHOUT finalizing,
	// returning its .bbck bytes — the sending half of live migration.
	MsgDetach MsgType = 0x08
	// MsgStats asks for the fleet-level counter snapshot and session ids.
	MsgStats MsgType = 0x09
	// MsgDrain blocks until every fed frame of a session is processed —
	// the quiesce barrier a migration or parity check runs behind.
	MsgDrain MsgType = 0x0A
	// MsgPing is the lightweight liveness probe health-probed routing
	// runs on: empty body, answered by MsgOK. Cheap enough to send every
	// probe interval to every shard.
	MsgPing MsgType = 0x0B
	// MsgFence declares the sender's coordinator epoch for this
	// connection. A shard remembers the highest epoch it has ever seen;
	// state-changing requests on a connection fenced at a lower epoch
	// are rejected with CodeFenced — how a deposed coordinator's stale
	// migrations die instead of corrupting the fleet.
	MsgFence MsgType = 0x0C
	// MsgJoin asks the coordinator to add the shard at Addr to the live
	// ring, migrating only the sessions whose arcs move onto it.
	MsgJoin MsgType = 0x0D
	// MsgDrainShard asks the coordinator to migrate every session off
	// the shard at Addr and remove it from the ring (graceful exit).
	MsgDrainShard MsgType = 0x0E
	// MsgHealth asks the coordinator for its epoch and per-shard health
	// states.
	MsgHealth MsgType = 0x0F
	// MsgLoad asks for a load sample. A shard answers with one row
	// (its own sessions, mem footprint, feed latency); a coordinator
	// answers with one row per member — including placeholder rows for
	// members it could not sample, so one dead shard never fails the
	// whole query. This is the rebalancer's planning input.
	MsgLoad MsgType = 0x10
	// MsgSetWeight asks the coordinator to set the capacity weight of
	// the shard at Addr — weighted vnodes for heterogeneous fleets. The
	// ring is rebuilt and only the sessions whose arcs move migrate.
	MsgSetWeight MsgType = 0x11
	// MsgAutopilotStatus asks the coordinator for its autopilot policy
	// state: imbalance score, rebalance/readmission/scrub counters and
	// the current coordination lease.
	MsgAutopilotStatus MsgType = 0x12

	// MsgOK acknowledges a request with no payload.
	MsgOK MsgType = 0x40
	// MsgErr reports a failed request (Code + Text).
	MsgErr MsgType = 0x41
	// MsgSnapResp answers MsgSnapshot.
	MsgSnapResp MsgType = 0x42
	// MsgCkptResp answers MsgCheckpoint/MsgDetach with .bbck bytes.
	MsgCkptResp MsgType = 0x43
	// MsgStatsResp answers MsgStats.
	MsgStatsResp MsgType = 0x44
	// MsgHealthResp answers MsgHealth.
	MsgHealthResp MsgType = 0x45
	// MsgLoadResp answers MsgLoad.
	MsgLoadResp MsgType = 0x46
	// MsgAutopilotResp answers MsgAutopilotStatus.
	MsgAutopilotResp MsgType = 0x47
)

// Error codes carried by MsgErr, mirroring the session layer's typed
// rejections so a remote caller can branch the same way a local one
// does.
const (
	CodeInternal  uint16 = 1 // unclassified server-side failure
	CodeNoSession uint16 = 2 // session.ErrNoSession
	CodeExists    uint16 = 3 // session.ErrExists
	CodeAdmission uint16 = 4 // ErrFleetFull / ErrMemoryBudget
	CodeBadReq    uint16 = 5 // malformed or unroutable request
	CodeFenced    uint16 = 6 // request from a deposed coordinator epoch
)

// OpenSpec describes a session to open (or resume): everything a shard
// needs to derive the reconstruction options through its injected
// OptionsFor hook. The coordinator keeps the spec so a lost shard's
// sessions can be re-opened elsewhere.
type OpenSpec struct {
	ID        string
	W, H      int
	UnknownVB bool
	Seed      int64
}

// SnapInfo is the wire projection of session.Snapshot — the counters a
// remote operator routes and load-balances on.
type SnapInfo struct {
	ID                              string
	Health                          uint8
	Identified, Restored, Finalized bool
	Fed, Dropped, Rejected          uint64
	Processed, StreamFrames         uint64
	Coverage                        float64 // fraction in [0,1]
	VBName                          string
}

// StatsInfo is the wire projection of a manager-level snapshot plus
// the open session ids (what a recovering coordinator enumerates).
type StatsInfo struct {
	Open                       uint32
	Opened, Restores, Restarts uint64
	Migrations                 uint64
	IDs                        []string
}

// ShardHealthInfo is one shard's routing health on the wire: the
// health-state-machine value (HealthState) and the consecutive probe
// or op failures counted against it.
type ShardHealthInfo struct {
	Addr  string
	State uint8
	Fails uint32
}

// HealthInfo is the wire projection of the coordinator's routing
// health: its fencing epoch and every member shard's state.
type HealthInfo struct {
	Epoch  uint64
	Shards []ShardHealthInfo
}

// SessionLoad is one session's placement cost on the wire — what the
// rebalancer ranks when picking the cheapest sessions to move off a
// hot shard.
type SessionLoad struct {
	ID     string
	Mem    uint64 // admission-time stream footprint in bytes
	Frames uint64 // stream frames processed so far
}

// ShardLoad is one shard's load sample on the wire (MsgLoadResp). A
// row with a non-empty Err is a placeholder: the shard could not be
// sampled (down, timed out) and every other field except Addr/State is
// unset — the graceful-degradation row `bgbuster stats` renders as
// DOWN/? instead of failing the whole command.
type ShardLoad struct {
	Addr       string
	State      uint8  // HealthState at sample time
	Weight     uint16 // capacity weight (vnode multiplier), 0 on shard-local rows
	Mem        uint64 // summed session stream footprint in bytes
	FeedMicros uint64 // EWMA of feed request handling latency, microseconds
	Sess       []SessionLoad
	Err        string // non-empty: sample failed; row is a placeholder
}

// AutopilotInfo is the autopilot policy state on the wire
// (MsgAutopilotResp): the latest imbalance score against its
// threshold, cumulative rebalance/readmission/scrub counters, and the
// coordination lease (when election is running).
type AutopilotInfo struct {
	Enabled      bool
	Imbalance    float64 // latest planner score
	Threshold    float64 // high-water score that triggers rebalancing
	Passes       uint64  // planner passes run
	Moves        uint64  // sessions migrated by the rebalancer
	Readmitted   uint64  // shards auto re-admitted after down
	Promoted     uint64  // shards promoted out of probation
	Probation    uint32  // shards currently in probation
	ScrubChecked uint64
	ScrubRepairs uint64
	ScrubSwept   uint64
	ScrubStuck   uint64 // live ids with no valid replica anywhere
	OrphanDels   uint64 // deletes that left orphaned replicas behind
	LeaseHeld    bool
	LeaseHolder  string
	LeaseTerm    uint64
	LeaseEpoch   uint64
	LeaseExpires int64 // unix nanoseconds; 0 = no lease observed
}

// Message is one decoded wire message. Only the fields its Type uses
// are meaningful; Encode writes exactly those, so
// Encode(Decode(b)) == b for every accepted b (the canonical-encoding
// invariant the fuzz harness enforces).
type Message struct {
	Type   MsgType
	Spec   OpenSpec      // Open, Resume; Spec.ID alone for id-bearing requests
	Frames []core.Frame  // Feed (exactly 1), FeedBatch (1..MaxBatch)
	Ckpt   []byte        // Resume, CkptResp
	Code   uint16        // Err
	Text   string        // Err
	Snap   SnapInfo      // SnapResp
	Stats  StatsInfo     // StatsResp
	Addr   string        // Join, DrainShard, SetWeight
	Epoch  uint64        // Fence
	Health HealthInfo    // HealthResp
	Weight uint16        // SetWeight
	Loads  []ShardLoad   // LoadResp
	Auto   AutopilotInfo // AutopilotResp
}

// Limits bounds what a decoder will allocate for one message — the
// DecodeLimits discipline from the vidstream and checkpoint codecs: a
// malicious peer must never be able to force a large allocation with a
// small crafted header. The zero value takes every default.
type Limits struct {
	// MaxBody caps one message's body length (default 64 MiB).
	MaxBody int64
	// MaxDim caps frame width and height (default 8192).
	MaxDim int
	// MaxBatch caps frames per MsgFeedBatch (default 1024).
	MaxBatch int
	// MaxIDLen caps session-id byte length (default 256).
	MaxIDLen int
	// MaxCkpt caps embedded checkpoint payloads (default 64 MiB).
	MaxCkpt int64
	// MaxIDs caps the id list in MsgStatsResp (default 1 << 16).
	MaxIDs int
	// MaxText caps MsgErr/VBName strings (default 4096).
	MaxText int
}

// DefaultLimits returns the default decode budgets.
func DefaultLimits() Limits { return Limits{}.withDefaults() }

func (l Limits) withDefaults() Limits {
	if l.MaxBody <= 0 {
		l.MaxBody = 64 << 20
	}
	if l.MaxDim <= 0 {
		l.MaxDim = 8192
	}
	if l.MaxBatch <= 0 {
		l.MaxBatch = 1024
	}
	if l.MaxIDLen <= 0 {
		l.MaxIDLen = 256
	}
	if l.MaxCkpt <= 0 {
		l.MaxCkpt = 64 << 20
	}
	if l.MaxIDs <= 0 {
		l.MaxIDs = 1 << 16
	}
	if l.MaxText <= 0 {
		l.MaxText = 4096
	}
	return l
}

// Encode serialises a message to its canonical wire bytes. A field too
// wide for its wire slot — a string over 65535 bytes, a frame side or a
// list count over 65535 — is an error, not a truncated write that every
// decoder would then reject.
func Encode(m *Message) ([]byte, error) {
	e := encoder{buf: make([]byte, 0, headerLen+bodyHint(m))}
	e.buf = append(e.buf, Magic...)
	e.buf = binary.LittleEndian.AppendUint16(e.buf, Version)
	e.buf = append(e.buf, byte(m.Type), 0, 0, 0, 0, 0) // body length patched below
	e.body(m)
	if e.err != nil {
		return nil, e.err
	}
	binary.LittleEndian.PutUint32(e.buf[8:], uint32(len(e.buf)-headerLen))
	return e.buf, nil
}

// bodyHint sizes the encode buffer for the bodies that carry frames or
// checkpoint bytes; any other body grows as it is appended.
func bodyHint(m *Message) int {
	n := 64
	switch m.Type {
	case MsgFeed, MsgFeedBatch:
		for _, f := range m.Frames {
			n += 5 + 3*len(f.Img.Pix)
			if f.Oracle != nil {
				n += f.Oracle.WordBytes()
			}
		}
	case MsgResume, MsgCkptResp:
		n += len(m.Ckpt)
	}
	return n
}

// encoder appends one message body, keeping the first field that
// overflows its u16 wire slot as the encode error.
type encoder struct {
	buf []byte
	err error
}

// n16 appends n as a u16 length, count or frame side.
func (e *encoder) n16(n int, what string) {
	if uint(n) > math.MaxUint16 && e.err == nil {
		e.err = fmt.Errorf("fleet: encode: %s %d overflows its u16 wire field", what, n)
	}
	e.buf = binary.LittleEndian.AppendUint16(e.buf, uint16(n))
}

// str appends a u16-length-prefixed string.
func (e *encoder) str(s, what string) {
	e.n16(len(s), what)
	e.buf = append(e.buf, s...)
}

func (e *encoder) body(m *Message) {
	switch m.Type {
	case MsgOpen, MsgResume:
		e.str(m.Spec.ID, "session id length")
		e.n16(m.Spec.W, "spec width")
		e.n16(m.Spec.H, "spec height")
		e.buf = append(e.buf, b2u8(m.Spec.UnknownVB))
		e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(m.Spec.Seed))
		if m.Type == MsgResume {
			e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(m.Ckpt)))
			e.buf = append(e.buf, m.Ckpt...)
		}
	case MsgFeed:
		if len(m.Frames) != 1 {
			e.err = fmt.Errorf("fleet: MsgFeed carries %d frames, want 1", len(m.Frames))
			return
		}
		e.str(m.Spec.ID, "session id length")
		e.frame(m.Frames[0])
	case MsgFeedBatch:
		if len(m.Frames) == 0 {
			e.err = errors.New("fleet: empty MsgFeedBatch")
			return
		}
		e.str(m.Spec.ID, "session id length")
		e.n16(len(m.Frames), "batch count")
		for _, f := range m.Frames {
			e.frame(f)
		}
	case MsgSnapshot, MsgCheckpoint, MsgClose, MsgDetach, MsgDrain:
		e.str(m.Spec.ID, "session id length")
	case MsgStats, MsgOK, MsgPing, MsgHealth, MsgLoad, MsgAutopilotStatus:
		// empty body
	case MsgFence:
		e.buf = binary.LittleEndian.AppendUint64(e.buf, m.Epoch)
	case MsgJoin, MsgDrainShard:
		e.str(m.Addr, "address length")
	case MsgSetWeight:
		e.str(m.Addr, "address length")
		e.buf = binary.LittleEndian.AppendUint16(e.buf, m.Weight)
	case MsgLoadResp:
		e.n16(len(m.Loads), "load row count")
		for _, row := range m.Loads {
			e.str(row.Addr, "address length")
			e.buf = append(e.buf, row.State)
			e.buf = binary.LittleEndian.AppendUint16(e.buf, row.Weight)
			e.buf = binary.LittleEndian.AppendUint64(e.buf, row.Mem)
			e.buf = binary.LittleEndian.AppendUint64(e.buf, row.FeedMicros)
			e.str(row.Err, "error text length")
			e.n16(len(row.Sess), "session load count")
			for _, s := range row.Sess {
				e.str(s.ID, "session id length")
				e.buf = binary.LittleEndian.AppendUint64(e.buf, s.Mem)
				e.buf = binary.LittleEndian.AppendUint64(e.buf, s.Frames)
			}
		}
	case MsgAutopilotResp:
		a := m.Auto
		e.buf = append(e.buf, b2u8(a.Enabled)|b2u8(a.LeaseHeld)<<1)
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(a.Imbalance))
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(a.Threshold))
		for _, v := range []uint64{a.Passes, a.Moves, a.Readmitted, a.Promoted} {
			e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
		}
		e.buf = binary.LittleEndian.AppendUint32(e.buf, a.Probation)
		for _, v := range []uint64{a.ScrubChecked, a.ScrubRepairs, a.ScrubSwept, a.ScrubStuck, a.OrphanDels} {
			e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
		}
		e.str(a.LeaseHolder, "lease holder length")
		e.buf = binary.LittleEndian.AppendUint64(e.buf, a.LeaseTerm)
		e.buf = binary.LittleEndian.AppendUint64(e.buf, a.LeaseEpoch)
		e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(a.LeaseExpires))
	case MsgHealthResp:
		e.buf = binary.LittleEndian.AppendUint64(e.buf, m.Health.Epoch)
		e.n16(len(m.Health.Shards), "shard health count")
		for _, s := range m.Health.Shards {
			e.str(s.Addr, "address length")
			e.buf = append(e.buf, s.State)
			e.buf = binary.LittleEndian.AppendUint32(e.buf, s.Fails)
		}
	case MsgErr:
		e.buf = binary.LittleEndian.AppendUint16(e.buf, m.Code)
		e.str(m.Text, "error text length")
	case MsgSnapResp:
		s := m.Snap
		e.str(s.ID, "session id length")
		e.buf = append(e.buf, s.Health)
		e.buf = append(e.buf, b2u8(s.Identified)|b2u8(s.Restored)<<1|b2u8(s.Finalized)<<2)
		for _, v := range []uint64{s.Fed, s.Dropped, s.Rejected, s.Processed, s.StreamFrames} {
			e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
		}
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(s.Coverage))
		e.str(s.VBName, "VB name length")
	case MsgCkptResp:
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(m.Ckpt)))
		e.buf = append(e.buf, m.Ckpt...)
	case MsgStatsResp:
		st := m.Stats
		e.buf = binary.LittleEndian.AppendUint32(e.buf, st.Open)
		for _, v := range []uint64{st.Opened, st.Restores, st.Restarts, st.Migrations} {
			e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
		}
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(st.IDs)))
		for _, id := range st.IDs {
			e.str(id, "session id length")
		}
	default:
		e.err = fmt.Errorf("fleet: encode: unknown message type 0x%02x", byte(m.Type))
	}
}

// frame appends one frame: geometry, the raster (imagex.AppendPix) and
// the packed-word oracle mask (flag 0 when absent).
func (e *encoder) frame(f core.Frame) {
	e.n16(f.Img.W, "frame width")
	e.n16(f.Img.H, "frame height")
	e.buf = imagex.AppendPix(e.buf, f.Img.Pix)
	if f.Oracle == nil {
		e.buf = append(e.buf, 0)
		return
	}
	e.buf = append(e.buf, 1)
	e.buf = f.Oracle.AppendWords(e.buf)
}

// Decode parses one complete message under the default budgets.
func Decode(data []byte) (*Message, error) {
	return DecodeWithLimits(data, DefaultLimits())
}

// DecodeWithLimits parses one complete message — header and body —
// rejecting anything structurally invalid, over budget, or
// non-canonical (trailing bytes, nonzero reserved byte, padding-bit
// violations in masks). It never panics on crafted input and never
// allocates beyond the budgets in lim.
func DecodeWithLimits(data []byte, lim Limits) (*Message, error) {
	lim = lim.withDefaults()
	if len(data) < headerLen {
		return nil, fmt.Errorf("fleet: %d-byte message shorter than header: %w", len(data), ErrBadMessage)
	}
	if string(data[:4]) != Magic {
		return nil, fmt.Errorf("fleet: bad magic %q: %w", data[:4], ErrBadMessage)
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != Version {
		return nil, fmt.Errorf("fleet: version %d: %w", v, ErrVersion)
	}
	if data[7] != 0 {
		return nil, fmt.Errorf("fleet: nonzero reserved byte: %w", ErrBadMessage)
	}
	bodyLen := int64(binary.LittleEndian.Uint32(data[8:12]))
	if bodyLen > lim.MaxBody {
		return nil, fmt.Errorf("fleet: %d-byte body exceeds budget %d: %w", bodyLen, lim.MaxBody, ErrBadMessage)
	}
	if int64(len(data)-headerLen) != bodyLen {
		return nil, fmt.Errorf("fleet: advertised body %d bytes, have %d: %w", bodyLen, len(data)-headerLen, ErrBadMessage)
	}
	m := &Message{Type: MsgType(data[6])}
	r := reader{binfmt.NewReader(data[headerLen:], ErrBadMessage)}
	if err := decodeBody(r, m, lim); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("fleet: %d trailing bytes: %w", r.Remaining(), ErrBadMessage)
	}
	return m, nil
}

func decodeBody(r reader, m *Message, lim Limits) error {
	var err error
	switch m.Type {
	case MsgOpen, MsgResume:
		if err = r.spec(&m.Spec, lim); err != nil {
			return err
		}
		if m.Type == MsgResume {
			if m.Ckpt, err = r.blob(lim.MaxCkpt); err != nil {
				return err
			}
		}
	case MsgFeed:
		if m.Spec.ID, err = r.Str(lim.MaxIDLen); err != nil {
			return err
		}
		f, err := r.frame(lim)
		if err != nil {
			return err
		}
		m.Frames = []core.Frame{f}
	case MsgFeedBatch:
		if m.Spec.ID, err = r.Str(lim.MaxIDLen); err != nil {
			return err
		}
		n, err := r.U16()
		if err != nil {
			return err
		}
		if n == 0 || int(n) > lim.MaxBatch {
			return fmt.Errorf("fleet: batch of %d frames outside [1,%d]: %w", n, lim.MaxBatch, ErrBadMessage)
		}
		// Frames are decoded one at a time: each frame's own geometry
		// check bounds its allocation, so no up-front n×frame reserve is
		// needed (or made).
		m.Frames = make([]core.Frame, 0, min(int(n), 64))
		for i := 0; i < int(n); i++ {
			f, err := r.frame(lim)
			if err != nil {
				return err
			}
			m.Frames = append(m.Frames, f)
		}
	case MsgSnapshot, MsgCheckpoint, MsgClose, MsgDetach, MsgDrain:
		if m.Spec.ID, err = r.Str(lim.MaxIDLen); err != nil {
			return err
		}
	case MsgStats, MsgOK, MsgPing, MsgHealth, MsgLoad, MsgAutopilotStatus:
		// empty body
	case MsgFence:
		if m.Epoch, err = r.U64(); err != nil {
			return err
		}
	case MsgJoin, MsgDrainShard:
		if m.Addr, err = r.Str(lim.MaxIDLen); err != nil {
			return err
		}
	case MsgSetWeight:
		if m.Addr, err = r.Str(lim.MaxIDLen); err != nil {
			return err
		}
		if m.Weight, err = r.U16(); err != nil {
			return err
		}
	case MsgLoadResp:
		n, err := r.U16()
		if err != nil {
			return err
		}
		if int(n) > lim.MaxIDs {
			return fmt.Errorf("fleet: %d load rows exceed budget %d: %w", n, lim.MaxIDs, ErrBadMessage)
		}
		// Each row costs >= 25 bytes (2 addr len + 1 state + 2 weight +
		// 8 mem + 8 latency + 2 err len + 2 session count), so the
		// advertised count is verified against what is present before any
		// reserve.
		if err := r.Need(25 * int64(n)); err != nil {
			return err
		}
		if n > 0 {
			m.Loads = make([]ShardLoad, 0, n)
		}
		for i := 0; i < int(n); i++ {
			var row ShardLoad
			if row.Addr, err = r.Str(lim.MaxIDLen); err != nil {
				return err
			}
			if row.State, err = r.U8(); err != nil {
				return err
			}
			if row.Weight, err = r.U16(); err != nil {
				return err
			}
			if row.Mem, err = r.U64(); err != nil {
				return err
			}
			if row.FeedMicros, err = r.U64(); err != nil {
				return err
			}
			if row.Err, err = r.Str(lim.MaxText); err != nil {
				return err
			}
			ns, err := r.U16()
			if err != nil {
				return err
			}
			if int(ns) > lim.MaxIDs {
				return fmt.Errorf("fleet: %d session loads exceed budget %d: %w", ns, lim.MaxIDs, ErrBadMessage)
			}
			// Each session entry costs >= 18 bytes (2 id len + 8 mem +
			// 8 frames).
			if err := r.Need(18 * int64(ns)); err != nil {
				return err
			}
			if ns > 0 {
				row.Sess = make([]SessionLoad, 0, ns)
			}
			for j := 0; j < int(ns); j++ {
				var s SessionLoad
				if s.ID, err = r.Str(lim.MaxIDLen); err != nil {
					return err
				}
				if s.Mem, err = r.U64(); err != nil {
					return err
				}
				if s.Frames, err = r.U64(); err != nil {
					return err
				}
				row.Sess = append(row.Sess, s)
			}
			m.Loads = append(m.Loads, row)
		}
	case MsgAutopilotResp:
		a := &m.Auto
		flags, err := r.U8()
		if err != nil {
			return err
		}
		if flags&^0x03 != 0 {
			return fmt.Errorf("fleet: nonzero autopilot flag padding: %w", ErrBadMessage)
		}
		a.Enabled, a.LeaseHeld = flags&1 != 0, flags&2 != 0
		bits, err := r.U64()
		if err != nil {
			return err
		}
		a.Imbalance = math.Float64frombits(bits)
		if bits, err = r.U64(); err != nil {
			return err
		}
		a.Threshold = math.Float64frombits(bits)
		for _, dst := range []*uint64{&a.Passes, &a.Moves, &a.Readmitted, &a.Promoted} {
			if *dst, err = r.U64(); err != nil {
				return err
			}
		}
		if a.Probation, err = r.U32(); err != nil {
			return err
		}
		for _, dst := range []*uint64{&a.ScrubChecked, &a.ScrubRepairs, &a.ScrubSwept, &a.ScrubStuck, &a.OrphanDels} {
			if *dst, err = r.U64(); err != nil {
				return err
			}
		}
		if a.LeaseHolder, err = r.Str(lim.MaxIDLen); err != nil {
			return err
		}
		if a.LeaseTerm, err = r.U64(); err != nil {
			return err
		}
		if a.LeaseEpoch, err = r.U64(); err != nil {
			return err
		}
		expires, err := r.U64()
		if err != nil {
			return err
		}
		a.LeaseExpires = int64(expires)
	case MsgHealthResp:
		if m.Health.Epoch, err = r.U64(); err != nil {
			return err
		}
		n, err := r.U16()
		if err != nil {
			return err
		}
		if int(n) > lim.MaxIDs {
			return fmt.Errorf("fleet: %d shard healths exceed budget %d: %w", n, lim.MaxIDs, ErrBadMessage)
		}
		// Each entry costs >= 7 bytes (2 len + 1 state + 4 fails), so the
		// advertised count is verified against what is present before any
		// reserve.
		if err := r.Need(7 * int64(n)); err != nil {
			return err
		}
		if n > 0 {
			m.Health.Shards = make([]ShardHealthInfo, 0, n)
		}
		for i := 0; i < int(n); i++ {
			var s ShardHealthInfo
			if s.Addr, err = r.Str(lim.MaxIDLen); err != nil {
				return err
			}
			if s.State, err = r.U8(); err != nil {
				return err
			}
			if s.Fails, err = r.U32(); err != nil {
				return err
			}
			m.Health.Shards = append(m.Health.Shards, s)
		}
	case MsgErr:
		if m.Code, err = r.U16(); err != nil {
			return err
		}
		if m.Text, err = r.Str(lim.MaxText); err != nil {
			return err
		}
	case MsgSnapResp:
		s := &m.Snap
		if s.ID, err = r.Str(lim.MaxIDLen); err != nil {
			return err
		}
		if s.Health, err = r.U8(); err != nil {
			return err
		}
		flags, err := r.U8()
		if err != nil {
			return err
		}
		if flags&^0x07 != 0 {
			return fmt.Errorf("fleet: nonzero snapshot flag padding: %w", ErrBadMessage)
		}
		s.Identified, s.Restored, s.Finalized = flags&1 != 0, flags&2 != 0, flags&4 != 0
		for _, dst := range []*uint64{&s.Fed, &s.Dropped, &s.Rejected, &s.Processed, &s.StreamFrames} {
			if *dst, err = r.U64(); err != nil {
				return err
			}
		}
		bits, err := r.U64()
		if err != nil {
			return err
		}
		s.Coverage = math.Float64frombits(bits)
		if s.VBName, err = r.Str(lim.MaxText); err != nil {
			return err
		}
	case MsgCkptResp:
		if m.Ckpt, err = r.blob(lim.MaxCkpt); err != nil {
			return err
		}
	case MsgStatsResp:
		st := &m.Stats
		if st.Open, err = r.U32(); err != nil {
			return err
		}
		for _, dst := range []*uint64{&st.Opened, &st.Restores, &st.Restarts, &st.Migrations} {
			if *dst, err = r.U64(); err != nil {
				return err
			}
		}
		n, err := r.U32()
		if err != nil {
			return err
		}
		if int64(n) > int64(lim.MaxIDs) {
			return fmt.Errorf("fleet: %d ids exceed budget %d: %w", n, lim.MaxIDs, ErrBadMessage)
		}
		// Each id costs >= 2 bytes on the wire, so the advertised count
		// is cheap to sanity-check against what is actually present
		// before reserving anything.
		if err := r.Need(2 * int64(n)); err != nil {
			return err
		}
		if n > 0 {
			st.IDs = make([]string, 0, n)
		}
		for i := uint32(0); i < n; i++ {
			id, err := r.Str(lim.MaxIDLen)
			if err != nil {
				return err
			}
			st.IDs = append(st.IDs, id)
		}
	default:
		return fmt.Errorf("fleet: unknown message type 0x%02x: %w", byte(m.Type), ErrBadMessage)
	}
	return nil
}

// WriteMessage frames and writes one message to w.
func WriteMessage(w io.Writer, m *Message) error {
	buf, err := Encode(m)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadMessage reads exactly one length-prefixed message from r under
// the given budgets. The header is read first and validated, so at
// most lim.MaxBody bytes are ever buffered for one message.
func ReadMessage(r io.Reader, lim Limits) (*Message, error) {
	lim = lim.withDefaults()
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	if string(hdr[:4]) != Magic {
		return nil, fmt.Errorf("fleet: bad magic %q: %w", hdr[:4], ErrBadMessage)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != Version {
		return nil, fmt.Errorf("fleet: version %d: %w", v, ErrVersion)
	}
	bodyLen := int64(binary.LittleEndian.Uint32(hdr[8:12]))
	if bodyLen > lim.MaxBody {
		return nil, fmt.Errorf("fleet: %d-byte body exceeds budget %d: %w", bodyLen, lim.MaxBody, ErrBadMessage)
	}
	buf := make([]byte, headerLen+int(bodyLen))
	copy(buf, hdr)
	if _, err := io.ReadFull(r, buf[headerLen:]); err != nil {
		return nil, err
	}
	return DecodeWithLimits(buf, lim)
}

// reader adds the wire-only sections (blob, spec, frame) to the shared
// bounded cursor.
type reader struct{ *binfmt.Reader }

// blob reads a u32-length-prefixed byte section bounded by maxLen,
// copying it out of the message buffer (checkpoint bytes outlive the
// request).
func (r reader) blob(maxLen int64) ([]byte, error) {
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	if int64(n) > maxLen {
		return nil, fmt.Errorf("fleet: %d-byte blob exceeds budget %d: %w", n, maxLen, ErrBadMessage)
	}
	b, err := r.Bytes(int(n))
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// spec reads an OpenSpec, bounding geometry by lim.MaxDim.
func (r reader) spec(s *OpenSpec, lim Limits) error {
	id, err := r.Str(lim.MaxIDLen)
	if err != nil {
		return err
	}
	w, err := r.U16()
	if err != nil {
		return err
	}
	h, err := r.U16()
	if err != nil {
		return err
	}
	if int(w) > lim.MaxDim || int(h) > lim.MaxDim || w == 0 || h == 0 {
		return fmt.Errorf("fleet: %dx%d spec outside [1,%d]: %w", w, h, lim.MaxDim, ErrBadMessage)
	}
	uvb, err := r.U8()
	if err != nil {
		return err
	}
	if uvb > 1 {
		return fmt.Errorf("fleet: non-boolean unknown-vb flag %d: %w", uvb, ErrBadMessage)
	}
	seed, err := r.U64()
	if err != nil {
		return err
	}
	s.ID, s.W, s.H, s.UnknownVB, s.Seed = id, int(w), int(h), uvb == 1, int64(seed)
	return nil
}

// frame reads one frame: the geometry is budget-checked, and the raster
// plus the oracle flag byte Need-verified, before the image allocation,
// so a crafted header cannot force a large allocation.
func (r reader) frame(lim Limits) (core.Frame, error) {
	w16, err := r.U16()
	if err != nil {
		return core.Frame{}, err
	}
	h16, err := r.U16()
	if err != nil {
		return core.Frame{}, err
	}
	w, h := int(w16), int(h16)
	if w == 0 || h == 0 || w > lim.MaxDim || h > lim.MaxDim {
		return core.Frame{}, fmt.Errorf("fleet: %dx%d frame outside [1,%d]: %w", w, h, lim.MaxDim, ErrBadMessage)
	}
	if err := r.Need(int64(3*w*h) + 1); err != nil {
		return core.Frame{}, err
	}
	img, err := r.Image(w, h)
	if err != nil {
		return core.Frame{}, err
	}
	hasOracle, err := r.U8()
	if err != nil {
		return core.Frame{}, err
	}
	switch hasOracle {
	case 0:
		return core.Frame{Img: img}, nil
	case 1:
		m, err := r.Mask(w, h)
		if err != nil {
			return core.Frame{}, err
		}
		return core.Frame{Img: img, Oracle: m}, nil
	default:
		return core.Frame{}, fmt.Errorf("fleet: non-boolean oracle flag %d: %w", hasOracle, ErrBadMessage)
	}
}

func b2u8(b bool) byte {
	if b {
		return 1
	}
	return 0
}
