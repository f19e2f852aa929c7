// Package autopilot turns the fleet's mechanisms — gated migration,
// probation re-admission, quorum-replicated checkpoints, fencing
// epochs — into hands-off policy: a load-aware rebalancer, automatic
// shard re-admission, lease-based coordinator election, and a
// checkpoint scrubber (DESIGN.md §18).
package autopilot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"time"

	"github.com/bgbuster/bgbuster/internal/faultinject"
	"github.com/bgbuster/bgbuster/internal/fleet"
	"github.com/bgbuster/bgbuster/internal/session"
)

// LeaseKey is the reserved checkpoint-store id under which candidates
// contend for the coordinator lease. Session ids may not use it.
const LeaseKey = "__fleet_lease__"

// ErrNotLeader is returned by operations that require holding the
// coordinator lease.
var ErrNotLeader = errors.New("autopilot: not the lease holder")

// errLeaseRead marks a lease read that failed in the store, as opposed
// to a missing or corrupt record.
var errLeaseRead = errors.New("autopilot: read lease")

var leaseMagic = [4]byte{'B', 'B', 'L', 'S'}

const (
	leaseVersion    = 1
	leaseMaxHolder  = 256
	leaseEncodedMin = 4 + 2 + 2 + 8 + 8 + 8 + 4 // magic ver hdr(len) term epoch expires crc
)

// Lease is the decoded BBLS record: who coordinates the fleet, under
// which election term and fencing epoch, and until when. Expiry is
// wall-clock (UnixNano) — candidates share the store, not a clock, so
// TTLs should dwarf plausible skew.
type Lease struct {
	Holder  string
	Term    uint64
	Epoch   uint64
	Expires int64 // UnixNano
}

// encodeLease serialises a lease: magic, u16 version, length-prefixed
// holder, u64 term, u64 epoch, i64 expiry, sealed with CRC32-IEEE.
func encodeLease(l Lease) ([]byte, error) {
	if len(l.Holder) == 0 || len(l.Holder) > leaseMaxHolder {
		return nil, fmt.Errorf("autopilot: lease holder of %d bytes", len(l.Holder))
	}
	b := append([]byte(nil), leaseMagic[:]...)
	b = binary.LittleEndian.AppendUint16(b, leaseVersion)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(l.Holder)))
	b = append(b, l.Holder...)
	b = binary.LittleEndian.AppendUint64(b, l.Term)
	b = binary.LittleEndian.AppendUint64(b, l.Epoch)
	b = binary.LittleEndian.AppendUint64(b, uint64(l.Expires))
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b)), nil
}

// DecodeLease parses and CRC-verifies a BBLS record — also the
// scrubber's integrity hook for the reserved lease id.
func DecodeLease(b []byte) (Lease, error) {
	var l Lease
	if len(b) < leaseEncodedMin {
		return l, fmt.Errorf("autopilot: lease record of %d bytes too short", len(b))
	}
	if string(b[:4]) != string(leaseMagic[:]) {
		return l, fmt.Errorf("autopilot: bad lease magic %q", b[:4])
	}
	body, crc := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if got := crc32.ChecksumIEEE(body); got != crc {
		return l, fmt.Errorf("autopilot: lease CRC mismatch (stored %08x, computed %08x)", crc, got)
	}
	if ver := binary.LittleEndian.Uint16(body[4:6]); ver != leaseVersion {
		return l, fmt.Errorf("autopilot: lease version %d", ver)
	}
	n := int(binary.LittleEndian.Uint16(body[6:8]))
	if n == 0 || n > leaseMaxHolder || 8+n+24 != len(body) {
		return l, fmt.Errorf("autopilot: lease holder length %d inconsistent with %d-byte record", n, len(b))
	}
	l.Holder = string(body[8 : 8+n])
	l.Term = binary.LittleEndian.Uint64(body[8+n:])
	l.Epoch = binary.LittleEndian.Uint64(body[8+n+8:])
	l.Expires = int64(binary.LittleEndian.Uint64(body[8+n+16:]))
	return l, nil
}

// ElectorConfig configures one coordinator candidate.
type ElectorConfig struct {
	// Store is the (ideally quorum-replicated) checkpoint store the
	// lease record lives in, beside the BBFM meta blob (required).
	Store session.CheckpointStore
	// ID names this candidate in the lease record (required, unique
	// per candidate).
	ID string
	// TTL is the lease duration; a leader renews each Tick, and a
	// lease not renewed within TTL is up for grabs (<=0: 15s).
	TTL time.Duration
	// Settle is the read-back delay after writing a claim: contenders
	// that wrote concurrently re-read after Settle and all but the
	// last writer back off (0: 100ms; negative: no wait — tests that
	// sequence Ticks by hand need a synchronous claim).
	Settle time.Duration
	// Clock drives expiry and the settle wait (nil: system clock).
	Clock faultinject.Clock
	// OnElected fires after this candidate wins the lease, with the
	// won term and the fencing epoch the new coordinator must use.
	OnElected func(term, epoch uint64)
	// OnDeposed fires when a held lease is observed under another
	// holder (or a higher term) — the callback must self-fence its
	// coordinator (Coordinator.Depose) and stop mutating the fleet.
	OnDeposed func()
	// Logf receives election diagnostics (nil: silent).
	Logf func(format string, args ...any)
}

// Elector runs lease-based coordinator election through the shared
// checkpoint store: candidates claim the CRC-sealed BBLS record with a
// bumped term and fencing epoch, re-read after a settle delay, and the
// surviving writer leads until it fails to renew. The store is the
// ballot box, shard fencing is the final arbiter — a deposed leader
// whose clock lied still dies at the shards with CodeFenced.
type Elector struct {
	cfg   ElectorConfig
	clock faultinject.Clock

	mu      sync.Mutex
	leading bool
	term    uint64
	epoch   uint64
}

// NewElector validates the config and returns a candidate.
func NewElector(cfg ElectorConfig) (*Elector, error) {
	if cfg.Store == nil {
		return nil, errors.New("autopilot: ElectorConfig.Store is required")
	}
	if cfg.ID == "" {
		return nil, errors.New("autopilot: ElectorConfig.ID is required")
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 15 * time.Second
	}
	if cfg.Settle == 0 {
		cfg.Settle = 100 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = faultinject.SystemClock()
	}
	return &Elector{cfg: cfg, clock: cfg.Clock}, nil
}

func (e *Elector) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}

// Leading reports whether this candidate currently holds the lease,
// and under which term.
func (e *Elector) Leading() (bool, uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.leading, e.term
}

// Lease returns the current lease record as stored (zero Lease when
// missing or corrupt).
func (e *Elector) Lease() Lease {
	b, err := e.cfg.Store.Load(LeaseKey)
	if err != nil {
		return Lease{}
	}
	l, err := DecodeLease(b)
	if err != nil {
		return Lease{}
	}
	return l
}

// Tick advances the election one step: a leader renews (or notices it
// was deposed), a follower checks for an expired or vacant lease and
// contends for it. Tests call Tick directly under a FakeClock; Run
// drives it on a jittered cadence.
func (e *Elector) Tick() error {
	e.mu.Lock()
	leading, term := e.leading, e.term
	e.mu.Unlock()
	if leading {
		return e.renew(term)
	}
	return e.contend()
}

// renew extends a held lease, or concedes if another holder took it.
func (e *Elector) renew(term uint64) error {
	cur, err := e.readLease()
	if err == nil && cur.Holder == e.cfg.ID && cur.Term == term {
		cur.Expires = e.clock.Now().Add(e.cfg.TTL).UnixNano()
		b, eerr := encodeLease(cur)
		if eerr == nil {
			eerr = e.cfg.Store.Save(LeaseKey, b)
		}
		if eerr != nil {
			return fmt.Errorf("autopilot: renew lease: %w", eerr)
		}
		return nil
	}
	// The record is gone, corrupt, or someone else's: we are deposed.
	e.mu.Lock()
	e.leading = false
	e.mu.Unlock()
	if cur.Holder != "" {
		e.logf("autopilot: %s deposed: lease held by %s (term %d)", e.cfg.ID, cur.Holder, cur.Term)
	} else {
		e.logf("autopilot: %s deposed: lease unreadable (%v)", e.cfg.ID, err)
	}
	if e.cfg.OnDeposed != nil {
		e.cfg.OnDeposed()
	}
	return nil
}

// contend claims a vacant or expired lease: write our record with a
// bumped term and epoch, wait Settle, and re-read — last writer wins,
// everyone else sees the winner and backs off. A lease the store
// fails to read is returned as an error, and nothing is written.
func (e *Elector) contend() error {
	cur, err := e.readLease()
	if errors.Is(err, errLeaseRead) {
		return err
	}
	now := e.clock.Now()
	if err == nil && cur.Holder != "" && cur.Expires > now.UnixNano() && cur.Holder != e.cfg.ID {
		return nil // a live leader exists; follow
	}
	claim := Lease{
		Holder:  e.cfg.ID,
		Term:    cur.Term + 1,
		Epoch:   cur.Epoch + 1,
		Expires: now.Add(e.cfg.TTL).UnixNano(),
	}
	b, err := encodeLease(claim)
	if err == nil {
		err = e.cfg.Store.Save(LeaseKey, b)
	}
	if err != nil {
		return fmt.Errorf("autopilot: claim lease: %w", err)
	}
	if e.cfg.Settle > 0 {
		<-e.clock.After(e.cfg.Settle)
	}
	got, err := e.readLease()
	if err != nil || got.Holder != e.cfg.ID || got.Term != claim.Term {
		e.logf("autopilot: %s lost the settle race to %s (term %d)", e.cfg.ID, got.Holder, got.Term)
		return nil
	}
	e.mu.Lock()
	e.leading = true
	e.term = claim.Term
	e.epoch = claim.Epoch
	e.mu.Unlock()
	e.logf("autopilot: %s elected coordinator (term %d, epoch %d)", e.cfg.ID, claim.Term, claim.Epoch)
	if e.cfg.OnElected != nil {
		e.cfg.OnElected(claim.Term, claim.Epoch)
	}
	return nil
}

// readLease loads and decodes the stored record. A missing record is
// (Lease{}, nil) — vacancy, not failure. A failed read wraps
// errLeaseRead: the record may name a live leader, so the contender
// must not treat it as vacant. A corrupt record is a decode error the
// contender treats as vacancy (the scrubber repairs or sweeps it).
func (e *Elector) readLease() (Lease, error) {
	b, err := e.cfg.Store.Load(LeaseKey)
	if session.IsMissing(err) {
		return Lease{}, nil
	}
	if err != nil {
		return Lease{}, fmt.Errorf("%w: %w", errLeaseRead, err)
	}
	return DecodeLease(b)
}

// Resign voluntarily releases a held lease (clean shutdown): the
// record's expiry is zeroed so the next candidate claims it without
// waiting out the TTL. No-op for non-leaders.
func (e *Elector) Resign() error {
	e.mu.Lock()
	if !e.leading {
		e.mu.Unlock()
		return nil
	}
	term := e.term
	e.leading = false
	e.mu.Unlock()
	cur, err := e.readLease()
	if err != nil || cur.Holder != e.cfg.ID || cur.Term != term {
		return nil // already taken over; nothing to release
	}
	cur.Expires = 0
	b, err := encodeLease(cur)
	if err == nil {
		err = e.cfg.Store.Save(LeaseKey, b)
	}
	return err
}

// Run drives Tick on a jittered cadence (half the TTL ±25%) until stop
// is closed. Per-candidate jitter keeps contenders from writing their
// claims in lockstep every cycle.
func (e *Elector) Run(stop <-chan struct{}, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	base := e.cfg.TTL / 2
	for {
		select {
		case <-stop:
			return
		case <-e.clock.After(fleet.Jittered(rng, base)):
			if err := e.Tick(); err != nil {
				e.logf("autopilot: election tick: %v", err)
			}
		}
	}
}
