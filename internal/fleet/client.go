package fleet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/bgbuster/bgbuster/internal/core"
)

// RemoteError is a typed failure the far side reported via MsgErr —
// the request was delivered and rejected, as opposed to a transport
// error where the shard itself may be gone.
type RemoteError struct {
	Code uint16
	Text string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("fleet: remote error %d: %s", e.Code, e.Text)
}

// TimeoutError reports a request that blew its configured I/O deadline
// — the peer is hung or partitioned, not necessarily dead, and it is
// unknown whether the request was applied. Distinct from both
// *RemoteError (delivered and rejected) and hard transport errors
// (connection refused/reset: the peer is gone).
type TimeoutError struct {
	Addr  string
	Op    string
	After time.Duration
	Err   error
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("fleet: %s: %s timed out after %v: %v", e.Addr, e.Op, e.After, e.Err)
}

func (e *TimeoutError) Unwrap() error { return e.Err }

// Timeout marks the error as a timeout for net.Error-style checks.
func (e *TimeoutError) Timeout() bool { return true }

// Timeouts bounds a client's blocking I/O. Zero values take the
// defaults; a negative value disables that deadline (the pre-deadline
// wedge-forever behaviour, for callers that genuinely want to block).
type Timeouts struct {
	// Dial bounds connection establishment (default 5s).
	Dial time.Duration
	// Read bounds one response read (default 60s — generously above the
	// shard-side 30s drain barrier so a slow drain is not misread as a
	// hang).
	Read time.Duration
	// Write bounds one request write (default 30s).
	Write time.Duration
}

// DefaultTimeouts returns the default per-op deadlines.
func DefaultTimeouts() Timeouts { return Timeouts{}.withDefaults() }

func (t Timeouts) withDefaults() Timeouts {
	if t.Dial == 0 {
		t.Dial = 5 * time.Second
	}
	if t.Read == 0 {
		t.Read = 60 * time.Second
	}
	if t.Write == 0 {
		t.Write = 30 * time.Second
	}
	return t
}

// Client is a synchronous wire-protocol client over one connection.
// Safe for concurrent use; requests are serialized on the connection.
type Client struct {
	addr string
	lim  Limits
	t    Timeouts

	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
}

// Dial connects to a shard or coordinator address under the default
// deadlines. Every op has a dial/read/write deadline by default — a
// hung or partitioned peer surfaces as a *TimeoutError instead of
// wedging the caller forever.
func Dial(addr string, lim Limits) (*Client, error) {
	return DialTimeouts(addr, lim, Timeouts{})
}

// DialTimeouts is Dial with explicit per-op deadlines.
func DialTimeouts(addr string, lim Limits, t Timeouts) (*Client, error) {
	t = t.withDefaults()
	var conn net.Conn
	var err error
	if t.Dial > 0 {
		conn, err = net.DialTimeout("tcp", addr, t.Dial)
	} else {
		conn, err = net.Dial("tcp", addr)
	}
	if err != nil {
		if isTimeout(err) {
			return nil, &TimeoutError{Addr: addr, Op: "dial", After: t.Dial, Err: err}
		}
		return nil, fmt.Errorf("fleet: dial %s: %w", addr, err)
	}
	return &Client{addr: addr, lim: lim.withDefaults(), t: t, conn: conn, br: bufio.NewReader(conn)}, nil
}

// Addr returns the dialed address.
func (c *Client) Addr() string { return c.addr }

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// do performs one request/response round trip under the configured
// deadlines. A transport failure closes the connection and is returned
// as-is (NOT a *RemoteError) — the caller's signal that the peer, not
// the request, failed; a deadline expiry comes back as *TimeoutError.
func (c *Client) do(req *Message) (*Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil, fmt.Errorf("fleet: client %s: connection closed", c.addr)
	}
	if c.t.Write > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.t.Write))
	}
	if err := WriteMessage(c.conn, req); err != nil {
		c.conn.Close()
		c.conn = nil
		if isTimeout(err) {
			return nil, &TimeoutError{Addr: c.addr, Op: fmt.Sprintf("request 0x%02x write", byte(req.Type)), After: c.t.Write, Err: err}
		}
		return nil, fmt.Errorf("fleet: %s: write: %w", c.addr, err)
	}
	if c.t.Read > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.t.Read))
	}
	resp, err := ReadMessage(c.br, c.lim)
	if err != nil {
		c.conn.Close()
		c.conn = nil
		if isTimeout(err) {
			return nil, &TimeoutError{Addr: c.addr, Op: fmt.Sprintf("request 0x%02x read", byte(req.Type)), After: c.t.Read, Err: err}
		}
		return nil, fmt.Errorf("fleet: %s: read: %w", c.addr, err)
	}
	if resp.Type == MsgErr {
		return nil, &RemoteError{Code: resp.Code, Text: resp.Text}
	}
	return resp, nil
}

// expect performs do and checks the response type.
func (c *Client) expect(req *Message, want MsgType) (*Message, error) {
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	if resp.Type != want {
		return nil, fmt.Errorf("fleet: %s: response type 0x%02x, want 0x%02x: %w",
			c.addr, byte(resp.Type), byte(want), ErrBadMessage)
	}
	return resp, nil
}

// Open opens a fresh session described by spec.
func (c *Client) Open(spec OpenSpec) error {
	_, err := c.expect(&Message{Type: MsgOpen, Spec: spec}, MsgOK)
	return err
}

// Resume registers a session from checkpoint bytes under spec.
func (c *Client) Resume(spec OpenSpec, ckpt []byte) error {
	_, err := c.expect(&Message{Type: MsgResume, Spec: spec, Ckpt: ckpt}, MsgOK)
	return err
}

// Feed delivers one frame.
func (c *Client) Feed(id string, f core.Frame) error {
	_, err := c.expect(&Message{Type: MsgFeed, Spec: OpenSpec{ID: id}, Frames: []core.Frame{f}}, MsgOK)
	return err
}

// FeedN delivers an ordered batch.
func (c *Client) FeedN(id string, frames []core.Frame) error {
	_, err := c.expect(&Message{Type: MsgFeedBatch, Spec: OpenSpec{ID: id}, Frames: frames}, MsgOK)
	return err
}

// Snapshot fetches a session's counters.
func (c *Client) Snapshot(id string) (SnapInfo, error) {
	resp, err := c.expect(&Message{Type: MsgSnapshot, Spec: OpenSpec{ID: id}}, MsgSnapResp)
	if err != nil {
		return SnapInfo{}, err
	}
	return resp.Snap, nil
}

// Checkpoint fetches a session's current .bbck bytes; the session
// keeps running.
func (c *Client) Checkpoint(id string) ([]byte, error) {
	resp, err := c.expect(&Message{Type: MsgCheckpoint, Spec: OpenSpec{ID: id}}, MsgCkptResp)
	if err != nil {
		return nil, err
	}
	return resp.Ckpt, nil
}

// Detach drains and removes a session without finalizing, returning
// its .bbck bytes — the sending half of live migration.
func (c *Client) Detach(id string) ([]byte, error) {
	resp, err := c.expect(&Message{Type: MsgDetach, Spec: OpenSpec{ID: id}}, MsgCkptResp)
	if err != nil {
		return nil, err
	}
	return resp.Ckpt, nil
}

// Drain blocks until every frame fed to the session so far has been
// processed (shard-side timeout applies).
func (c *Client) Drain(id string) error {
	_, err := c.expect(&Message{Type: MsgDrain, Spec: OpenSpec{ID: id}}, MsgOK)
	return err
}

// CloseSession finalizes and removes a session.
func (c *Client) CloseSession(id string) error {
	_, err := c.expect(&Message{Type: MsgClose, Spec: OpenSpec{ID: id}}, MsgOK)
	return err
}

// Status fetches the peer's status snapshot: one row from a shard, one
// row per shard record from a coordinator — with placeholder rows (Err
// set) for shards it could not sample.
func (c *Client) Status() (Status, error) {
	resp, err := c.expect(&Message{Type: MsgStatus}, MsgStatusResp)
	if err != nil {
		return Status{}, err
	}
	return resp.Status, nil
}

// shardStatus fetches a shard's one status row.
func (c *Client) shardStatus() (ShardStatus, error) {
	st, err := c.Status()
	if err != nil {
		return ShardStatus{}, err
	}
	if len(st.Shards) != 1 {
		return ShardStatus{}, fmt.Errorf("fleet: %s: %d status rows from a shard, want 1: %w", c.addr, len(st.Shards), ErrBadMessage)
	}
	return st.Shards[0], nil
}

// Ping performs the lightweight liveness round trip health probes run.
func (c *Client) Ping() error {
	_, err := c.expect(&Message{Type: MsgPing}, MsgOK)
	return err
}

// Fence declares the caller's coordinator epoch on this connection.
// The peer rejects it (CodeFenced) when it has already seen a higher
// epoch — the caller has been deposed.
func (c *Client) Fence(epoch uint64) error {
	_, err := c.expect(&Message{Type: MsgFence, Epoch: epoch}, MsgOK)
	return err
}

// Join asks a coordinator to add the shard at addr to the live ring.
func (c *Client) Join(addr string) error {
	_, err := c.expect(&Message{Type: MsgJoin, Addr: addr}, MsgOK)
	return err
}

// DrainShard asks a coordinator to migrate every session off the shard
// at addr and remove it from the ring.
func (c *Client) DrainShard(addr string) error {
	_, err := c.expect(&Message{Type: MsgDrainShard, Addr: addr}, MsgOK)
	return err
}

// SetWeight asks a coordinator to set the capacity weight of the shard
// at addr (weighted vnodes). Sessions whose arcs move migrate.
func (c *Client) SetWeight(addr string, weight int) error {
	if weight < 0 || weight > int(^uint16(0)) {
		return fmt.Errorf("fleet: weight %d outside uint16", weight)
	}
	_, err := c.expect(&Message{Type: MsgSetWeight, Addr: addr, Weight: uint16(weight)}, MsgOK)
	return err
}
