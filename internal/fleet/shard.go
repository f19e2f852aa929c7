package fleet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/session"
)

// Handler answers one decoded request with one response message. Both
// Shard (local session.Manager) and Coordinator (routing proxy)
// implement it, so the same Serve loop fronts either role.
type Handler interface {
	Handle(req *Message) *Message
}

// ConnState is the per-connection context Serve threads through a
// ConnHandler: today just the fencing epoch the connection declared
// via MsgFence (0 = unfenced — a plain client exempt from fencing).
type ConnState struct {
	Epoch uint64
}

// ConnHandler is an optional Handler refinement for handlers that need
// per-connection state (the shard's fencing check). Serve uses it when
// implemented, falling back to Handle otherwise.
type ConnHandler interface {
	HandleConn(cs *ConnState, req *Message) *Message
}

// Serve accepts connections on ln and runs one request/response loop
// per connection until ln is closed. Each request is budget-checked by
// lim before any allocation. Serve returns when Accept fails
// (listener closed); closing the listener also closes every open
// connection — coordinators park idle persistent clients in
// ReadMessage, and a shutdown must not wait on them.
func Serve(ln net.Listener, h Handler, lim Limits, logf func(format string, args ...any)) error {
	lim = lim.withDefaults()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns = map[net.Conn]struct{}{}
	)
	defer wg.Wait()
	defer func() {
		mu.Lock()
		for c := range conns {
			c.Close()
		}
		mu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		mu.Lock()
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				mu.Lock()
				delete(conns, conn)
				mu.Unlock()
				conn.Close()
			}()
			serveConn(conn, h, lim, logf)
		}()
	}
}

func serveConn(conn net.Conn, h Handler, lim Limits, logf func(string, ...any)) {
	br := bufio.NewReader(conn)
	ch, connAware := h.(ConnHandler)
	cs := &ConnState{}
	for {
		buf, err := readFrame(br, lim)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && logf != nil {
				logf("fleet: %s: read: %v", conn.RemoteAddr(), err)
			}
			// A bad header or a short body poisons the stream framing;
			// answer once and drop the connection rather than guess at
			// resync.
			if errors.Is(err, ErrBadMessage) || errors.Is(err, ErrVersion) {
				_ = WriteMessage(conn, errMsg(CodeBadReq, err.Error()))
			}
			return
		}
		var resp *Message
		switch req, err := DecodeWithLimits(buf, lim); {
		case err != nil:
			// The whole body was read, so the framing is intact: reject
			// the request and keep the connection.
			resp = errMsg(CodeBadReq, err.Error())
		case connAware:
			resp = ch.HandleConn(cs, req)
		default:
			resp = h.Handle(req)
		}
		if resp == nil {
			resp = errMsg(CodeInternal, "no response")
		}
		if err := WriteMessage(conn, resp); err != nil {
			if logf != nil {
				logf("fleet: %s: write: %v", conn.RemoteAddr(), err)
			}
			return
		}
	}
}

func errMsg(code uint16, text string) *Message {
	return &Message{Type: MsgErr, Code: code, Text: text}
}

func okMsg() *Message { return &Message{Type: MsgOK} }

// ShardConfig configures a worker shard.
type ShardConfig struct {
	// Manager hosts the shard's sessions (required). The shard reuses
	// all of its machinery — admission control, supervisor restarts,
	// circuit breaker, checkpoint cycles.
	Manager *session.Manager
	// OptionsFor derives reconstruction options from an open/resume
	// spec (required). Injected so fleet does not import the facade.
	OptionsFor func(spec OpenSpec) core.Options
	// Limits bounds decode budgets (zero value: defaults).
	Limits Limits
	// DrainTimeout bounds a MsgDrain barrier (default 30s).
	DrainTimeout time.Duration
	// Logf receives serve-loop diagnostics (nil: silent).
	Logf func(format string, args ...any)
}

// Shard serves one session.Manager over the wire protocol: ingest,
// snapshots, checkpoint export, resume, and the detach half of live
// migration. It also enforces coordinator fencing: the highest epoch
// any connection has declared via MsgFence is remembered, and
// state-changing requests from connections fenced at a lower epoch are
// rejected with CodeFenced — a deposed coordinator's stale migrations
// and feeds die here instead of racing the new coordinator's.
type Shard struct {
	cfg ShardConfig

	mu       sync.Mutex
	maxEpoch uint64

	feedMicros atomic.Uint64 // EWMA of per-frame feed handling latency
}

// observeFeed folds one feed request's handling time into the
// per-frame latency EWMA (alpha 1/8) the load sampler reports — the
// rebalancer's latency signal for hot shards.
func (s *Shard) observeFeed(d time.Duration, frames int) {
	if frames <= 0 {
		return
	}
	us := uint64(d.Microseconds()) / uint64(frames)
	for {
		old := s.feedMicros.Load()
		next := us
		if old != 0 {
			next = old + (us-old)/8
			if us < old {
				next = old - (old-us)/8
			}
		}
		if s.feedMicros.CompareAndSwap(old, next) {
			return
		}
	}
}

// FeedLatency returns the current per-frame feed latency EWMA.
func (s *Shard) FeedLatency() time.Duration {
	return time.Duration(s.feedMicros.Load()) * time.Microsecond
}

// NewShard validates the config and returns a shard handler.
func NewShard(cfg ShardConfig) (*Shard, error) {
	if cfg.Manager == nil {
		return nil, errors.New("fleet: ShardConfig.Manager is required")
	}
	if cfg.OptionsFor == nil {
		return nil, errors.New("fleet: ShardConfig.OptionsFor is required")
	}
	cfg.Limits = cfg.Limits.withDefaults()
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	return &Shard{cfg: cfg}, nil
}

// Serve runs the accept loop on ln until it is closed.
func (s *Shard) Serve(ln net.Listener) error {
	return Serve(ln, s, s.cfg.Limits, s.cfg.Logf)
}

// Handle answers one request against the local manager on an unfenced
// (plain-client) connection.
func (s *Shard) Handle(req *Message) *Message {
	return s.HandleConn(&ConnState{}, req)
}

// Fenced reports the highest coordinator epoch this shard has seen.
func (s *Shard) Fenced() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxEpoch
}

// mutates reports whether a request changes session state — the set
// fencing guards. Reads (snapshot, checkpoint export, status, ping)
// stay answerable on any connection: a deposed coordinator observing
// state is harmless, a deposed coordinator changing it is not.
func mutates(t MsgType) bool {
	switch t {
	case MsgOpen, MsgResume, MsgFeed, MsgClose, MsgDetach, MsgDrain:
		return true
	}
	return false
}

// HandleConn answers one request, applying the fencing check for
// connections that declared an epoch.
func (s *Shard) HandleConn(cs *ConnState, req *Message) *Message {
	if req.Type == MsgFence {
		s.mu.Lock()
		if req.Epoch < s.maxEpoch {
			max := s.maxEpoch
			s.mu.Unlock()
			return errMsg(CodeFenced, fmt.Sprintf("epoch %d is stale: shard fenced at epoch %d", req.Epoch, max))
		}
		s.maxEpoch = req.Epoch
		s.mu.Unlock()
		cs.Epoch = req.Epoch
		return okMsg()
	}
	if cs.Epoch > 0 && mutates(req.Type) {
		s.mu.Lock()
		max := s.maxEpoch
		s.mu.Unlock()
		if cs.Epoch < max {
			return errMsg(CodeFenced, fmt.Sprintf("connection epoch %d deposed by epoch %d", cs.Epoch, max))
		}
	}
	mgr := s.cfg.Manager
	switch req.Type {
	case MsgPing:
		return okMsg()
	case MsgOpen:
		return status(s.Open(req.Spec))
	case MsgResume:
		return status(s.Resume(req.Spec, req.Ckpt))
	case MsgFeed:
		return status(s.FeedN(req.Spec.ID, req.Frames))
	case MsgStatus:
		st := mgr.Stats()
		row := ShardStatus{Mem: st.MemUsed, FeedMicros: s.feedMicros.Load(),
			Opened: st.Opened, Restores: st.Restored, Restarts: st.Restarts}
		for _, sn := range st.Sessions {
			row.Sess = append(row.Sess, SessionLoad{ID: sn.ID, Mem: sn.MemBytes, Frames: sn.StreamFrames})
		}
		return &Message{Type: MsgStatusResp, Status: Status{Epoch: s.Fenced(), Shards: []ShardStatus{row}}}
	case MsgSnapshot:
		sess, ok := mgr.Get(req.Spec.ID)
		if !ok {
			return errMsg(CodeNoSession, fmt.Sprintf("session %q not found", req.Spec.ID))
		}
		return &Message{Type: MsgSnapResp, Snap: snapInfo(sess.Stats())}
	case MsgCheckpoint:
		sess, ok := mgr.Get(req.Spec.ID)
		if !ok {
			return errMsg(CodeNoSession, fmt.Sprintf("session %q not found", req.Spec.ID))
		}
		data, err := sess.CheckpointBytes()
		if err != nil {
			return statusErr(err)
		}
		return &Message{Type: MsgCkptResp, Ckpt: data}
	case MsgDetach:
		data, err := s.Detach(req.Spec.ID)
		if err != nil {
			return statusErr(err)
		}
		return &Message{Type: MsgCkptResp, Ckpt: data}
	case MsgDrain:
		sess, ok := mgr.Get(req.Spec.ID)
		if !ok {
			return errMsg(CodeNoSession, fmt.Sprintf("session %q not found", req.Spec.ID))
		}
		return status(sess.Drain(s.cfg.DrainTimeout))
	case MsgClose:
		sess, ok := mgr.Get(req.Spec.ID)
		if !ok {
			return errMsg(CodeNoSession, fmt.Sprintf("session %q not found", req.Spec.ID))
		}
		return status(sess.Close())
	default:
		return errMsg(CodeBadReq, fmt.Sprintf("unexpected message type 0x%02x", byte(req.Type)))
	}
}

// Open opens a session on the local manager with the options
// OptionsFor derives from spec.
func (s *Shard) Open(spec OpenSpec) error {
	_, err := s.cfg.Manager.Open(spec.ID, spec.W, spec.H, s.cfg.OptionsFor(spec))
	return err
}

// Resume registers a session on the local manager from checkpoint
// bytes.
func (s *Shard) Resume(spec OpenSpec, ckpt []byte) error {
	_, err := s.cfg.Manager.ResumeSession(spec.ID, ckpt, s.cfg.OptionsFor(spec))
	return err
}

// Feed delivers one frame to a local session as a batch of one.
func (s *Shard) Feed(id string, f core.Frame) error { return s.FeedN(id, []core.Frame{f}) }

// FeedN delivers an ordered batch to a local session and folds its
// handling time into the feed latency EWMA.
func (s *Shard) FeedN(id string, frames []core.Frame) error {
	start := time.Now()
	err := s.cfg.Manager.FeedN(id, frames)
	s.observeFeed(time.Since(start), len(frames))
	return err
}

// Detach drains and removes a local session without finalizing and
// returns its .bbck bytes. An unknown id is the *RemoteError a Client
// would receive for it.
func (s *Shard) Detach(id string) ([]byte, error) {
	sess, ok := s.cfg.Manager.Get(id)
	if !ok {
		return nil, &RemoteError{Code: CodeNoSession, Text: fmt.Sprintf("session %q not found", id)}
	}
	return sess.Detach()
}

// snapInfo projects a session snapshot onto the wire struct.
func snapInfo(st session.Snapshot) SnapInfo {
	return SnapInfo{
		ID:           st.ID,
		Health:       uint8(st.Health),
		Identified:   st.Identified,
		Restored:     st.Restored,
		Finalized:    st.Finalized,
		Fed:          st.FramesFed,
		Dropped:      st.FramesDropped,
		Rejected:     st.FramesRejected,
		Processed:    st.FramesProcessed,
		StreamFrames: st.StreamFrames,
		Coverage:     st.CoveragePct / 100,
		VBName:       st.VBName,
	}
}

// status maps a session-layer error onto a wire response.
func status(err error) *Message {
	if err == nil {
		return okMsg()
	}
	return statusErr(err)
}

func statusErr(err error) *Message {
	var remote *RemoteError
	if errors.As(err, &remote) {
		return errMsg(remote.Code, remote.Text)
	}
	code := CodeInternal
	switch {
	case errors.Is(err, session.ErrNoSession):
		code = CodeNoSession
	case errors.Is(err, session.ErrExists):
		code = CodeExists
	case errors.Is(err, session.ErrFleetFull), errors.Is(err, session.ErrMemoryBudget):
		code = CodeAdmission
	}
	return errMsg(code, err.Error())
}
