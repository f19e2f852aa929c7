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
	// MsgFeed delivers an ordered batch of 1..MaxBatch frames to a
	// session as one intake unit; a single frame is a batch of one.
	MsgFeed MsgType = 0x02
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
	// MsgSetWeight asks the coordinator to set the capacity weight of
	// the shard at Addr — weighted vnodes for heterogeneous fleets. The
	// ring is rebuilt and only the sessions whose arcs move migrate.
	MsgSetWeight MsgType = 0x11
	// MsgStatus asks for a status snapshot (empty body). A shard answers
	// with one row (its own sessions, counters, mem footprint, feed
	// latency); a coordinator answers with its epoch, migration and
	// autopilot counters and one row per shard record — including
	// placeholder rows for shards it could not sample, so one dead shard
	// never fails the whole query. Both `bgbuster stats` and the
	// rebalancer read it.
	MsgStatus MsgType = 0x13

	// MsgOK acknowledges a request with no payload.
	MsgOK MsgType = 0x40
	// MsgErr reports a failed request (Code + Text).
	MsgErr MsgType = 0x41
	// MsgSnapResp answers MsgSnapshot.
	MsgSnapResp MsgType = 0x42
	// MsgCkptResp answers MsgCheckpoint/MsgDetach with .bbck bytes.
	MsgCkptResp MsgType = 0x43
	// MsgStatusResp answers MsgStatus.
	MsgStatusResp MsgType = 0x48
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

// SessionLoad is one session's placement cost on the wire — what the
// rebalancer ranks when picking the cheapest sessions to move off a
// hot shard.
type SessionLoad struct {
	ID     string
	Mem    uint64 // admission-time stream footprint in bytes
	Frames uint64 // stream frames processed so far
}

// Status is the one status snapshot (MsgStatusResp). A shard reports
// the highest epoch it has been fenced at and one row; a coordinator
// reports its fencing epoch, migration count and autopilot state and
// one row per shard record, draining shards included.
type Status struct {
	Epoch      uint64
	Migrations uint64        // live migrations plus shard-loss recoveries (coordinator)
	Auto       AutopilotInfo // zero unless an autopilot is registered (coordinator)
	Shards     []ShardStatus
}

// ShardStatus is one shard's row. The coordinator fills in the
// membership columns (Addr, Role, Weight) from its
// shard record and the rest from the shard's own row. A row with a
// non-empty Err is a placeholder: the shard could not be sampled (down,
// timed out) and only the membership columns are set — the
// graceful-degradation row `bgbuster stats` renders as DOWN/? instead
// of failing the whole command.
type ShardStatus struct {
	Addr                       string
	Role                       Role
	Weight                     uint16 // capacity weight (vnode multiplier), 0 on shard-local rows
	Mem                        uint64 // summed session stream footprint in bytes
	FeedMicros                 uint64 // EWMA of feed request handling latency, microseconds
	Opened, Restores, Restarts uint64
	Sess                       []SessionLoad // one entry per open session, by id
	Err                        string        // non-empty: sample failed; row is a placeholder
}

// AutopilotInfo is the autopilot policy state in a coordinator's
// Status: the latest imbalance score against its threshold, cumulative
// rebalance/readmission/scrub counters, and the coordination lease
// (when election is running). Shards in probation are counted from the
// Status rows.
type AutopilotInfo struct {
	Enabled      bool
	Imbalance    float64 // latest planner score
	Threshold    float64 // high-water score that triggers rebalancing
	Passes       uint64  // planner passes run
	Moves        uint64  // sessions migrated by the rebalancer
	Readmitted   uint64  // shards auto re-admitted after down
	Promoted     uint64  // shards promoted out of probation
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
	Spec   OpenSpec     // Open, Resume; Spec.ID alone for id-bearing requests
	Frames []core.Frame // Feed (1..MaxBatch)
	Ckpt   []byte       // Resume, CkptResp
	Code   uint16       // Err
	Text   string       // Err
	Snap   SnapInfo     // SnapResp
	Addr   string       // Join, DrainShard, SetWeight
	Epoch  uint64       // Fence
	Weight uint16       // SetWeight
	Status Status       // StatusResp
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
	// MaxBatch caps frames per MsgFeed (default 1024).
	MaxBatch int
	// MaxIDLen caps session-id byte length (default 256).
	MaxIDLen int
	// MaxCkpt caps embedded checkpoint payloads (default 64 MiB).
	MaxCkpt int64
	// MaxIDs caps the shard rows, and each row's sessions, in
	// MsgStatusResp (default 1 << 16).
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
	case MsgFeed:
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
		if len(m.Frames) == 0 {
			e.err = errors.New("fleet: empty MsgFeed")
			return
		}
		e.str(m.Spec.ID, "session id length")
		e.n16(len(m.Frames), "batch count")
		for _, f := range m.Frames {
			e.frame(f)
		}
	case MsgSnapshot, MsgCheckpoint, MsgClose, MsgDetach, MsgDrain:
		e.str(m.Spec.ID, "session id length")
	case MsgOK, MsgPing, MsgStatus:
		// empty body
	case MsgFence:
		e.buf = binary.LittleEndian.AppendUint64(e.buf, m.Epoch)
	case MsgJoin, MsgDrainShard:
		e.str(m.Addr, "address length")
	case MsgSetWeight:
		e.str(m.Addr, "address length")
		e.buf = binary.LittleEndian.AppendUint16(e.buf, m.Weight)
	case MsgStatusResp:
		e.status(m.Status)
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
	default:
		e.err = fmt.Errorf("fleet: encode: unknown message type 0x%02x", byte(m.Type))
	}
}

// status appends a Status: epoch, migrations, the autopilot block,
// then the shard rows, each with its session list.
func (e *encoder) status(st Status) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, st.Epoch)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, st.Migrations)
	a := st.Auto
	e.buf = append(e.buf, b2u8(a.Enabled)|b2u8(a.LeaseHeld)<<1)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(a.Imbalance))
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(a.Threshold))
	for _, v := range []uint64{a.Passes, a.Moves, a.Readmitted, a.Promoted,
		a.ScrubChecked, a.ScrubRepairs, a.ScrubSwept, a.ScrubStuck, a.OrphanDels} {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
	}
	e.str(a.LeaseHolder, "lease holder length")
	e.buf = binary.LittleEndian.AppendUint64(e.buf, a.LeaseTerm)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, a.LeaseEpoch)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(a.LeaseExpires))
	e.n16(len(st.Shards), "status row count")
	for _, row := range st.Shards {
		e.str(row.Addr, "address length")
		e.buf = append(e.buf, byte(row.Role))
		e.buf = binary.LittleEndian.AppendUint16(e.buf, row.Weight)
		for _, v := range []uint64{row.Mem, row.FeedMicros, row.Opened, row.Restores, row.Restarts} {
			e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
		}
		e.str(row.Err, "error text length")
		e.n16(len(row.Sess), "session load count")
		for _, s := range row.Sess {
			e.str(s.ID, "session id length")
			e.buf = binary.LittleEndian.AppendUint64(e.buf, s.Mem)
			e.buf = binary.LittleEndian.AppendUint64(e.buf, s.Frames)
		}
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
	case MsgOK, MsgPing, MsgStatus:
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
	case MsgStatusResp:
		if err = r.status(&m.Status, lim); err != nil {
			return err
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
	buf, err := readFrame(r, lim)
	if err != nil {
		return nil, err
	}
	return DecodeWithLimits(buf, lim)
}

// readFrame reads one message's header and whole body without decoding
// the body. After an error from readFrame the stream's framing is lost;
// after a decode error of the bytes it returned, it is not.
func readFrame(r io.Reader, lim Limits) ([]byte, error) {
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
	return buf, nil
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

// status reads a Status body, budget-checking every list count before
// its reserve.
func (r reader) status(st *Status, lim Limits) error {
	var err error
	if st.Epoch, err = r.U64(); err != nil {
		return err
	}
	if st.Migrations, err = r.U64(); err != nil {
		return err
	}
	a := &st.Auto
	flags, err := r.U8()
	if err != nil {
		return err
	}
	if flags&^0x03 != 0 {
		return fmt.Errorf("fleet: nonzero autopilot flag padding: %w", ErrBadMessage)
	}
	a.Enabled, a.LeaseHeld = flags&1 != 0, flags&2 != 0
	for _, dst := range []*float64{&a.Imbalance, &a.Threshold} {
		bits, err := r.U64()
		if err != nil {
			return err
		}
		*dst = math.Float64frombits(bits)
	}
	for _, dst := range []*uint64{&a.Passes, &a.Moves, &a.Readmitted, &a.Promoted,
		&a.ScrubChecked, &a.ScrubRepairs, &a.ScrubSwept, &a.ScrubStuck, &a.OrphanDels} {
		if *dst, err = r.U64(); err != nil {
			return err
		}
	}
	if a.LeaseHolder, err = r.Str(lim.MaxIDLen); err != nil {
		return err
	}
	for _, dst := range []*uint64{&a.LeaseTerm, &a.LeaseEpoch} {
		if *dst, err = r.U64(); err != nil {
			return err
		}
	}
	expires, err := r.U64()
	if err != nil {
		return err
	}
	a.LeaseExpires = int64(expires)

	// A row costs >= 49 bytes (2 addr len + 1 role + 2 weight + 5x8
	// counters + 2 err len + 2 session count).
	n, err := r.count(49, lim.MaxIDs, "status rows")
	if err != nil {
		return err
	}
	if n > 0 {
		st.Shards = make([]ShardStatus, 0, n)
	}
	for i := 0; i < n; i++ {
		var row ShardStatus
		if row.Addr, err = r.Str(lim.MaxIDLen); err != nil {
			return err
		}
		role, err := r.U8()
		if err != nil {
			return err
		}
		if role > uint8(RoleDown) {
			return fmt.Errorf("fleet: status row role %d out of range: %w", role, ErrBadMessage)
		}
		row.Role = Role(role)
		if row.Weight, err = r.U16(); err != nil {
			return err
		}
		for _, dst := range []*uint64{&row.Mem, &row.FeedMicros, &row.Opened, &row.Restores, &row.Restarts} {
			if *dst, err = r.U64(); err != nil {
				return err
			}
		}
		if row.Err, err = r.Str(lim.MaxText); err != nil {
			return err
		}
		// A session entry costs >= 18 bytes (2 id len + 8 mem + 8 frames).
		ns, err := r.count(18, lim.MaxIDs, "session loads")
		if err != nil {
			return err
		}
		if ns > 0 {
			row.Sess = make([]SessionLoad, 0, ns)
		}
		for j := 0; j < ns; j++ {
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
		st.Shards = append(st.Shards, row)
	}
	return nil
}

// count reads a u16 list count and rejects one over max, or one whose
// entries (each at least minBytes) cannot fit in what is left of the
// body — before the caller reserves anything.
func (r reader) count(minBytes int64, max int, what string) (int, error) {
	n, err := r.U16()
	if err != nil {
		return 0, err
	}
	if int(n) > max {
		return 0, fmt.Errorf("fleet: %d %s exceed budget %d: %w", n, what, max, ErrBadMessage)
	}
	return int(n), r.Need(minBytes * int64(n))
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
