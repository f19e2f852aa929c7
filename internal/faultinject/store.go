package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrInjected is the error every injected store failure wraps; tests
// can tell an injected fault from a genuine one with errors.Is.
var ErrInjected = errors.New("faultinject: injected store error")

// Store is the checkpoint-store surface the flaky wrapper decorates. It
// structurally matches session.CheckpointStore, so a *FlakyStore can be
// dropped into session.Config.Checkpoints directly; faultinject itself
// stays import-free of the session layer.
type Store interface {
	Save(id string, data []byte) error
	Load(id string) ([]byte, error)
	List() ([]string, error)
	Delete(id string) error
}

// StoreProfile configures a FlakyStore. All rates are per-operation
// probabilities in [0, 1]; the zero value injects nothing.
type StoreProfile struct {
	// Seed drives every random decision.
	Seed int64
	// SaveFail / LoadFail / ListFail / DeleteFail inject operation
	// errors (the operation does not reach the inner store).
	SaveFail   float64
	LoadFail   float64
	ListFail   float64
	DeleteFail float64
	// PartialWrite silently hands the inner store a torn prefix of the
	// data with its tail bytes damaged — a crash mid-write that the
	// caller believes succeeded. Checked only when SaveFail did not
	// already claim the operation.
	PartialWrite float64
	// Latency, when > 0, sleeps this long before every operation (a
	// slow disk or network store). Deterministic in count, not in wall
	// time; keep it zero in reproducibility-sensitive tests.
	Latency time.Duration
}

// StoreCounters tallies a FlakyStore's activity.
type StoreCounters struct {
	Saves, Loads, Lists, Deletes                                             uint64
	InjectedSaveErrs, InjectedLoadErrs, InjectedListErrs, InjectedDeleteErrs uint64
	PartialWrites                                                            uint64
}

// Injected returns the total number of injected faults (errors plus
// silent partial writes).
func (c StoreCounters) Injected() uint64 {
	return c.InjectedSaveErrs + c.InjectedLoadErrs + c.InjectedListErrs + c.InjectedDeleteErrs + c.PartialWrites
}

// FlakyStore wraps a Store with seeded fault injection. It is safe for
// concurrent use (the session layer saves from many workers at once);
// note that under concurrency the interleaving of operations — and so
// which operation draws which fault — is scheduler-dependent, while the
// total fault mix still follows the profile.
type FlakyStore struct {
	inner Store
	p     StoreProfile

	mu  sync.Mutex
	rng *rand.Rand
	c   StoreCounters
}

// NewFlakyStore wraps inner with the given fault profile.
func NewFlakyStore(inner Store, p StoreProfile) *FlakyStore {
	return &FlakyStore{inner: inner, p: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// StoreCounters returns a snapshot of the operation and fault tallies.
func (f *FlakyStore) StoreCounters() StoreCounters {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.c
}

// roll draws one fault decision under the lock.
func (f *FlakyStore) roll(rate float64) bool {
	return rate > 0 && f.rng.Float64() < rate
}

func (f *FlakyStore) sleep() {
	if f.p.Latency > 0 {
		time.Sleep(f.p.Latency)
	}
}

// Save passes through, fails, or tears the write according to the
// profile.
func (f *FlakyStore) Save(id string, data []byte) error {
	f.sleep()
	f.mu.Lock()
	f.c.Saves++
	if f.roll(f.p.SaveFail) {
		f.c.InjectedSaveErrs++
		f.mu.Unlock()
		return fmt.Errorf("save %q: %w", id, ErrInjected)
	}
	torn := f.roll(f.p.PartialWrite)
	var seed int64
	if torn {
		f.c.PartialWrites++
		seed = f.rng.Int63()
	}
	f.mu.Unlock()
	if torn && len(data) > 0 {
		tornData, _ := CorruptBytes(data[:len(data)/2+1], 0.01, seed)
		return f.inner.Save(id, tornData)
	}
	return f.inner.Save(id, data)
}

// Load passes through or fails according to the profile.
func (f *FlakyStore) Load(id string) ([]byte, error) {
	f.sleep()
	f.mu.Lock()
	f.c.Loads++
	if f.roll(f.p.LoadFail) {
		f.c.InjectedLoadErrs++
		f.mu.Unlock()
		return nil, fmt.Errorf("load %q: %w", id, ErrInjected)
	}
	f.mu.Unlock()
	return f.inner.Load(id)
}

// List passes through or fails according to the profile.
func (f *FlakyStore) List() ([]string, error) {
	f.sleep()
	f.mu.Lock()
	f.c.Lists++
	if f.roll(f.p.ListFail) {
		f.c.InjectedListErrs++
		f.mu.Unlock()
		return nil, fmt.Errorf("list: %w", ErrInjected)
	}
	f.mu.Unlock()
	return f.inner.List()
}

// Delete passes through or fails according to the profile.
func (f *FlakyStore) Delete(id string) error {
	f.sleep()
	f.mu.Lock()
	f.c.Deletes++
	if f.roll(f.p.DeleteFail) {
		f.c.InjectedDeleteErrs++
		f.mu.Unlock()
		return fmt.Errorf("delete %q: %w", id, ErrInjected)
	}
	f.mu.Unlock()
	return f.inner.Delete(id)
}
