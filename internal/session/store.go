package session

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// CheckpointStore persists per-session .bbck checkpoints so a restarted
// fleet can pick up every call where it left off (Manager.Restore).
// Implementations must be safe for concurrent use: each session worker
// saves its own checkpoints while Restore lists and loads.
type CheckpointStore interface {
	// Save durably replaces the checkpoint for a session id.
	Save(id string, data []byte) error
	// Load returns the last saved checkpoint for a session id.
	Load(id string) ([]byte, error)
	// List returns every session id with a stored checkpoint.
	List() ([]string, error)
	// Delete removes a session's checkpoint; deleting a missing id is
	// not an error.
	Delete(id string) error
}

// IsMissing reports whether a store Load error says the key does not
// exist. A joined error (a quorum store's per-replica failures) is
// missing only when every replica says so; any other failure means the
// record may exist and must not be read as absent.
func IsMissing(err error) bool {
	switch e := err.(type) {
	case nil:
		return false
	case interface{ Unwrap() []error }:
		for _, r := range e.Unwrap() {
			if !IsMissing(r) {
				return false
			}
		}
		return true
	case interface{ Unwrap() error }:
		return IsMissing(e.Unwrap())
	}
	return errors.Is(err, fs.ErrNotExist)
}

// checkpointExt is the on-disk suffix of DirStore entries.
const checkpointExt = ".bbck"

// DirStore is a CheckpointStore over a flat directory: one
// hex(id).bbck file per session, written atomically (temp file +
// rename) so a crash mid-save leaves the previous checkpoint intact.
// Session ids are hex-encoded in the file name, so arbitrary ids —
// including path separators — cannot escape the directory.
//
// A checkpoint directory belongs to one fleet at a time: NewDirStore
// sweeps temp files a crashed predecessor left behind, which would
// race with another live fleet writing the same directory.
type DirStore struct {
	dir     string
	mu      sync.Mutex
	orphans []string // temp-file debris swept at open or by Sweep
}

var _ CheckpointStore = (*DirStore)(nil)

// NewDirStore opens (creating if needed) a checkpoint directory. It
// probes writability up front — an unwritable checkpoint dir is a
// misconfiguration better surfaced at startup than as degraded
// sessions hours into a run — and sweeps orphaned temp files left by a
// crash between CreateTemp and rename (see Orphans).
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("session: checkpoint dir: %w", err)
	}
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return nil, fmt.Errorf("session: checkpoint dir %s is not writable: %w", dir, err)
	}
	probe.Close()
	if err := os.Remove(probe.Name()); err != nil {
		return nil, fmt.Errorf("session: checkpoint dir %s: cannot remove probe: %w", dir, err)
	}
	d := &DirStore{dir: dir}
	d.orphans, _ = d.sweepLocked() // open-time sweep; removal failures retry on the next Sweep
	return d, nil
}

// isOrphanName reports whether a directory entry is Save/probe debris
// rather than durable state: interrupted "tmp-*.bbck.partial"
// temporaries, ".probe-*" writability probes a crash left behind, and
// generic "*.tmp" leftovers. Real checkpoints (hex(id).bbck) never
// match.
func isOrphanName(name string) bool {
	if strings.HasPrefix(name, "tmp-") && strings.HasSuffix(name, ".partial") {
		return true
	}
	if strings.HasPrefix(name, ".probe-") {
		return true
	}
	return strings.HasSuffix(name, ".tmp")
}

// sweepLocked removes temp-file debris and returns the names removed.
// It works from a fresh directory listing, so temps whose earlier
// cleanup failed (a Save error path that could not reclaim its temp)
// are retried on every sweep. Caller holds d.mu (or owns d exclusively,
// as in NewDirStore).
func (d *DirStore) sweepLocked() (removed []string, err error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("session: checkpoint sweep: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !isOrphanName(name) {
			continue
		}
		if rerr := os.Remove(filepath.Join(d.dir, name)); rerr == nil || os.IsNotExist(rerr) {
			removed = append(removed, name)
		}
	}
	sort.Strings(removed)
	return removed, nil
}

// Sweep removes temp-file debris from the checkpoint directory —
// interrupted "tmp-*.bbck.partial" Save temporaries, ".probe-*"
// writability probes, and "*.tmp" leftovers — and returns the names it
// removed. NewDirStore sweeps once at open; a long-running fleet calls
// Sweep to reclaim space later, e.g. after a Save error reported a
// temp it could not clean up. Checkpoints themselves are never
// touched.
func (d *DirStore) Sweep() ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	removed, err := d.sweepLocked()
	d.orphans = append(d.orphans, removed...)
	return removed, err
}

// Orphans returns the temp-file debris swept away so far (at open and
// by every Sweep) — each entry a Save or probe some process never
// completed.
func (d *DirStore) Orphans() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.orphans...)
}

// Dir returns the backing directory.
func (d *DirStore) Dir() string { return d.dir }

func (d *DirStore) path(id string) string {
	return filepath.Join(d.dir, hex.EncodeToString([]byte(id))+checkpointExt)
}

// Save writes the checkpoint atomically.
func (d *DirStore) Save(id string, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	tmp, err := os.CreateTemp(d.dir, "tmp-*"+checkpointExt+".partial")
	if err != nil {
		return fmt.Errorf("session: checkpoint save %q: %w", id, err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), d.path(id))
	}
	if werr != nil {
		if rerr := os.Remove(tmp.Name()); rerr != nil && !os.IsNotExist(rerr) {
			// The temp could not be reclaimed either (unwritable or
			// vanished directory, permission flip). Name it in the error
			// so the operator knows; the next Sweep relists the directory
			// and retries the removal.
			return fmt.Errorf("session: checkpoint save %q: %w (temp %s left for Sweep)",
				id, werr, filepath.Base(tmp.Name()))
		}
		return fmt.Errorf("session: checkpoint save %q: %w", id, werr)
	}
	return nil
}

// Load reads a session's checkpoint.
func (d *DirStore) Load(id string) ([]byte, error) {
	data, err := os.ReadFile(d.path(id))
	if err != nil {
		return nil, fmt.Errorf("session: checkpoint load %q: %w", id, err)
	}
	return data, nil
}

// List returns the stored session ids in sorted order. Files that are
// not hex(id).bbck (interrupted .partial temporaries, foreign files,
// undecodable names) are skipped, not errors; use ListDetailed when
// the skipped names matter.
func (d *DirStore) List() ([]string, error) {
	ids, _, err := d.ListDetailed()
	return ids, err
}

// ListDetailed returns the stored session ids in sorted order plus the
// file names it skipped: foreign files someone else dropped in the
// directory and .bbck entries whose names do not decode as hex ids.
// A skipped file is reported, never an error and never deleted — the
// checkpoint dir is durable state; judgement on unknown bytes belongs
// to the operator (DESIGN.md §12).
func (d *DirStore) ListDetailed() (ids, skipped []string, err error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("session: checkpoint list: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			skipped = append(skipped, name)
			continue
		}
		if !strings.HasSuffix(name, checkpointExt) {
			skipped = append(skipped, name)
			continue
		}
		raw, err := hex.DecodeString(strings.TrimSuffix(name, checkpointExt))
		if err != nil {
			skipped = append(skipped, name)
			continue
		}
		ids = append(ids, string(raw))
	}
	sort.Strings(ids)
	sort.Strings(skipped)
	return ids, skipped, nil
}

// Delete removes a session's checkpoint.
func (d *DirStore) Delete(id string) error {
	err := os.Remove(d.path(id))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("session: checkpoint delete %q: %w", id, err)
	}
	return nil
}

// MemStore is an in-memory CheckpointStore for tests and ephemeral
// fleets (durable across Manager restarts within one process, not
// across process restarts).
type MemStore struct {
	mu   sync.Mutex
	data map[string][]byte
}

var _ CheckpointStore = (*MemStore)(nil)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{data: map[string][]byte{}} }

// Save stores a copy of data.
func (m *MemStore) Save(id string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data[id] = append([]byte(nil), data...)
	return nil
}

// Load returns a copy of the stored checkpoint.
func (m *MemStore) Load(id string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.data[id]
	if !ok {
		return nil, fmt.Errorf("session: checkpoint load %q: %w", id, os.ErrNotExist)
	}
	return append([]byte(nil), data...), nil
}

// List returns the stored ids in sorted order.
func (m *MemStore) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, 0, len(m.data))
	for id := range m.data {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// Delete removes a stored checkpoint.
func (m *MemStore) Delete(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.data, id)
	return nil
}
