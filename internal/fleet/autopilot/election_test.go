package autopilot

import (
	"testing"
	"time"

	"github.com/bgbuster/bgbuster/internal/faultinject"
	"github.com/bgbuster/bgbuster/internal/session"
)

func TestLeaseCodecRoundTrip(t *testing.T) {
	l := Lease{Holder: "coord-a", Term: 7, Epoch: 12, Expires: 1754600000000000000}
	b, err := encodeLease(l)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLease(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != l {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, l)
	}
	// A flipped byte anywhere must fail the CRC (or a structural check).
	for off := range b {
		bad := append([]byte(nil), b...)
		bad[off] ^= 0x40
		if _, err := DecodeLease(bad); err == nil {
			t.Fatalf("corruption at offset %d accepted", off)
		}
	}
	// Truncations are rejected, never panic.
	for n := 0; n < len(b); n++ {
		if _, err := DecodeLease(b[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	if _, err := encodeLease(Lease{}); err == nil {
		t.Fatal("empty holder accepted")
	}
}

// newTestElector builds a candidate on a shared store and fake clock
// with the synchronous (settle-free) claim path.
func newTestElector(t *testing.T, store session.CheckpointStore, clk faultinject.Clock, id string,
	onElected func(term, epoch uint64), onDeposed func()) *Elector {
	t.Helper()
	e, err := NewElector(ElectorConfig{
		Store: store, ID: id, TTL: 10 * time.Second, Settle: -1,
		Clock: clk, OnElected: onElected, OnDeposed: onDeposed, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// countLeaders ticks nothing; it just counts candidates reporting
// leadership.
func countLeaders(es ...*Elector) int {
	n := 0
	for _, e := range es {
		if ok, _ := e.Leading(); ok {
			n++
		}
	}
	return n
}

// TestElectionConvergesAcrossDepositions is the acceptance property:
// three candidates over one quorum store converge to exactly one
// leader, and across two forced depositions (lease expiry while the
// holder stalls) leadership moves with a strictly increasing term and
// epoch, the deposed holders noticing on their next tick.
func TestElectionConvergesAcrossDepositions(t *testing.T) {
	stores := []session.CheckpointStore{session.NewMemStore(), session.NewMemStore(), session.NewMemStore()}
	qs, err := session.NewQuorumStore(stores, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	clk := faultinject.NewFakeClock(time.Unix(1_754_600_000, 0))
	var elected, deposed []string
	mk := func(id string) *Elector {
		return newTestElector(t, qs, clk, id,
			func(term, epoch uint64) { elected = append(elected, id) },
			func() { deposed = append(deposed, id) })
	}
	a, b, c := mk("coord-a"), mk("coord-b"), mk("coord-c")

	// Round 1: a claims the vacant lease; b and c follow.
	for _, e := range []*Elector{a, b, c} {
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if n := countLeaders(a, b, c); n != 1 {
		t.Fatalf("after round 1: %d leaders", n)
	}
	if ok, term := a.Leading(); !ok || term != 1 {
		t.Fatalf("a leading=%v term=%d, want leader at term 1", ok, term)
	}

	// Renewals hold the lease: advance within the TTL, everyone ticks,
	// nothing changes hands.
	clk.Advance(5 * time.Second)
	for _, e := range []*Elector{a, b, c} {
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if ok, _ := a.Leading(); !ok {
		t.Fatal("a lost the lease despite renewing within the TTL")
	}

	// Forced deposition 1: a stalls past the TTL; b claims the expired
	// lease. a's next tick must notice and concede.
	clk.Advance(11 * time.Second)
	if err := b.Tick(); err != nil {
		t.Fatal(err)
	}
	if ok, term := b.Leading(); !ok || term != 2 {
		t.Fatalf("b leading=%v term=%d, want leader at term 2", ok, term)
	}
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	if n := countLeaders(a, b, c); n != 1 {
		t.Fatalf("after deposition 1: %d leaders", n)
	}

	// Forced deposition 2: b stalls; c takes over at term 3.
	clk.Advance(11 * time.Second)
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := b.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if n := countLeaders(a, b, c); n != 1 {
		t.Fatalf("after deposition 2: %d leaders", n)
	}
	if ok, term := c.Leading(); !ok || term != 3 {
		t.Fatalf("c leading=%v term=%d, want leader at term 3", ok, term)
	}
	lease := c.Lease()
	if lease.Holder != "coord-c" || lease.Epoch != 3 {
		t.Fatalf("final lease %+v, want coord-c at epoch 3", lease)
	}

	wantElected := []string{"coord-a", "coord-b", "coord-c"}
	wantDeposed := []string{"coord-a", "coord-b"}
	if len(elected) != 3 || len(deposed) != 2 {
		t.Fatalf("elected=%v deposed=%v, want %v / %v", elected, deposed, wantElected, wantDeposed)
	}
	for i := range wantElected {
		if elected[i] != wantElected[i] {
			t.Fatalf("elected=%v, want %v", elected, wantElected)
		}
	}
	for i := range wantDeposed {
		if deposed[i] != wantDeposed[i] {
			t.Fatalf("deposed=%v, want %v", deposed, wantDeposed)
		}
	}
}

// TestElectionSettleRace: two candidates claim a vacant lease in the
// same contention window; the settle re-read makes all but the last
// writer back off, so exactly one leads.
func TestElectionSettleRace(t *testing.T) {
	store := session.NewMemStore()
	clk := faultinject.NewFakeClock(time.Unix(1_754_600_000, 0))
	mk := func(id string) *Elector {
		e, err := NewElector(ElectorConfig{
			Store: store, ID: id, TTL: 10 * time.Second,
			Settle: 50 * time.Millisecond, Clock: clk, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := mk("coord-a"), mk("coord-b")

	// Both write their claims, then both sit in the settle wait; the
	// clock advance releases them together and the re-read picks the
	// last writer.
	done := make(chan error, 2)
	go func() { done <- a.Tick() }()
	go func() { done <- b.Tick() }()
	finished := 0
	for finished < 2 {
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
			finished++
		default:
			clk.Advance(25 * time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}
	if n := countLeaders(a, b); n != 1 {
		t.Fatalf("settle race produced %d leaders", n)
	}
}

// TestElectionResign: a clean resignation zeroes the expiry so the
// next candidate claims the lease without waiting out the TTL.
func TestElectionResign(t *testing.T) {
	store := session.NewMemStore()
	clk := faultinject.NewFakeClock(time.Unix(1_754_600_000, 0))
	a := newTestElector(t, store, clk, "coord-a", nil, nil)
	b := newTestElector(t, store, clk, "coord-b", nil, nil)
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := a.Resign(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := a.Leading(); ok {
		t.Fatal("a still leads after resigning")
	}
	// No clock advance: b claims immediately.
	if err := b.Tick(); err != nil {
		t.Fatal(err)
	}
	if ok, term := b.Leading(); !ok || term != 2 {
		t.Fatalf("b leading=%v term=%d after resignation", ok, term)
	}
}

// TestElectionReadErrorIsNotVacancy: only a missing record is a vacant
// lease. A follower whose store read fails must return the error and
// write nothing: claiming with its own term-1 record would depose the
// live leader and regress the fencing epoch.
func TestElectionReadErrorIsNotVacancy(t *testing.T) {
	store := session.NewMemStore()
	clk := faultinject.NewFakeClock(time.Unix(1_754_600_000, 0))
	a := newTestElector(t, store, clk, "coord-a", nil, nil)
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	held := a.Lease()
	if held.Holder != "coord-a" {
		t.Fatalf("a did not take the vacant lease: %+v", held)
	}

	flaky := faultinject.NewFlakyStore(store, faultinject.StoreProfile{LoadFail: 1})
	b := newTestElector(t, flaky, clk, "coord-b", nil, nil)
	if err := b.Tick(); err == nil {
		t.Fatal("contending over an unreadable lease returned nil")
	}
	if ok, _ := b.Leading(); ok {
		t.Fatal("b leads after a failed lease read")
	}
	if got := a.Lease(); got != held {
		t.Fatalf("failed read overwrote the lease: %+v, was %+v", got, held)
	}
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if ok, term := a.Leading(); !ok || term != held.Term {
		t.Fatalf("a leading=%v term=%d after b's failed read, want term %d", ok, term, held.Term)
	}
}
