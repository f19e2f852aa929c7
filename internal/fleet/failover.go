package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"github.com/bgbuster/bgbuster/internal/binfmt"
	"github.com/bgbuster/bgbuster/internal/session"
)

// Coordinator failover (DESIGN.md §17). The active coordinator
// persists a small BBFM meta blob — fencing epoch, ring membership,
// open-session specs, CRC-sealed — into the (ideally quorum-
// replicated) checkpoint store alongside the .bbck checkpoints. A
// candidate that wins the coordinator lease calls TakeOver at the lease
// epoch: it reads the blob from any surviving replica, fences every
// shard at the new epoch (deposing the old coordinator — shards reject
// its mutations with CodeFenced from that moment), rebuilds routing
// from live shard status, and recovers any session found on no shard
// from its replicated checkpoint.

// ErrDeposed is returned by every coordinator operation after a peer
// reported a higher fencing epoch: a successor has taken over and this
// coordinator must stop mutating the fleet.
var ErrDeposed = errors.New("fleet: coordinator deposed by a higher epoch")

// ErrNoMeta is returned by TakeOver when the store holds no fleet
// metadata — every replica reports it missing, so there is nothing to
// take over from. Any other failure to read it is returned as is: a
// read error is not a first boot.
var ErrNoMeta = errors.New("fleet: no fleet metadata in checkpoint store")

// MetaKey is the reserved checkpoint-store id under which the
// coordinator persists its BBFM meta blob. Session ids may not use it.
const MetaKey = "__fleet_meta__"

var metaMagic = [4]byte{'B', 'B', 'F', 'M'}

const (
	// metaVersion 2 added a u16 capacity weight after each member
	// address; version-1 blobs (implicit weight 1) still decode.
	metaVersion     = 2
	metaMaxMembers  = 4096
	metaMaxSpecs    = 1 << 20
	metaMaxStrBytes = 1024
)

// fleetMeta is the decoded BBFM blob.
type fleetMeta struct {
	Epoch   uint64
	Vnodes  int
	Members []string
	Weights map[string]int
	Specs   []OpenSpec
}

func metaAppendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// encodeMeta serialises the blob: magic, u16 version, u64 epoch,
// u32 vnodes, u16 member count + per-member (length-prefixed addr,
// u16 weight), u32 spec count + per-spec (id, u16 W, u16 H, u8 flags,
// u64 seed), all little-endian, sealed with a trailing CRC32-IEEE of
// everything before it.
func encodeMeta(m fleetMeta) ([]byte, error) {
	if len(m.Members) > metaMaxMembers {
		return nil, fmt.Errorf("fleet: %d members exceed the meta budget %d", len(m.Members), metaMaxMembers)
	}
	if len(m.Specs) > metaMaxSpecs {
		return nil, fmt.Errorf("fleet: %d specs exceed the meta budget %d", len(m.Specs), metaMaxSpecs)
	}
	b := append([]byte(nil), metaMagic[:]...)
	b = binary.LittleEndian.AppendUint16(b, metaVersion)
	b = binary.LittleEndian.AppendUint64(b, m.Epoch)
	b = binary.LittleEndian.AppendUint32(b, uint32(m.Vnodes))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(m.Members)))
	for _, a := range m.Members {
		if len(a) > metaMaxStrBytes {
			return nil, fmt.Errorf("fleet: member address %d bytes long", len(a))
		}
		b = metaAppendStr(b, a)
		b = binary.LittleEndian.AppendUint16(b, uint16(clampWeight(m.Weights[a])))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Specs)))
	for _, s := range m.Specs {
		if len(s.ID) > metaMaxStrBytes {
			return nil, fmt.Errorf("fleet: session id %d bytes long", len(s.ID))
		}
		b = metaAppendStr(b, s.ID)
		b = binary.LittleEndian.AppendUint16(b, uint16(s.W))
		b = binary.LittleEndian.AppendUint16(b, uint16(s.H))
		var flags uint8
		if s.UnknownVB {
			flags = 1
		}
		b = append(b, flags)
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Seed))
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b)), nil
}

// decodeMeta parses and CRC-verifies a BBFM blob.
func decodeMeta(b []byte) (fleetMeta, error) {
	var m fleetMeta
	if len(b) < len(metaMagic)+2+4 {
		return m, fmt.Errorf("fleet: meta blob of %d bytes too short: %w", len(b), ErrBadMessage)
	}
	if string(b[:4]) != string(metaMagic[:]) {
		return m, fmt.Errorf("fleet: bad meta magic %q: %w", b[:4], ErrBadMessage)
	}
	body, crc := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if got := crc32.ChecksumIEEE(body); got != crc {
		return m, fmt.Errorf("fleet: meta CRC mismatch (stored %08x, computed %08x): %w", crc, got, ErrBadMessage)
	}
	r := binfmt.NewReader(body[len(metaMagic):], ErrBadMessage)
	ver, err := r.U16()
	if err != nil {
		return m, err
	}
	if ver != 1 && ver != metaVersion {
		return m, fmt.Errorf("fleet: meta version %d: %w", ver, ErrVersion)
	}
	if m.Epoch, err = r.U64(); err != nil {
		return m, err
	}
	vnodes, err := r.U32()
	if err != nil {
		return m, err
	}
	m.Vnodes = int(vnodes)
	nm, err := r.U16()
	if err != nil {
		return m, err
	}
	if int(nm) > metaMaxMembers {
		return m, fmt.Errorf("fleet: %d meta members exceed budget: %w", nm, ErrBadMessage)
	}
	for i := 0; i < int(nm); i++ {
		a, err := r.Str(metaMaxStrBytes)
		if err != nil {
			return m, err
		}
		m.Members = append(m.Members, a)
		if ver >= 2 {
			w, err := r.U16()
			if err != nil {
				return m, err
			}
			if w == 0 || int(w) > maxWeight {
				return m, fmt.Errorf("fleet: meta weight %d out of range: %w", w, ErrBadMessage)
			}
			if w != 1 {
				if m.Weights == nil {
					m.Weights = map[string]int{}
				}
				m.Weights[a] = int(w)
			}
		}
	}
	ns, err := r.U32()
	if err != nil {
		return m, err
	}
	if int64(ns) > metaMaxSpecs {
		return m, fmt.Errorf("fleet: %d meta specs exceed budget: %w", ns, ErrBadMessage)
	}
	// Each spec costs >= 15 bytes; verify the advertised count against
	// the bytes actually present before reserving anything.
	if err := r.Need(15 * int64(ns)); err != nil {
		return m, err
	}
	for i := uint32(0); i < ns; i++ {
		var s OpenSpec
		if s.ID, err = r.Str(metaMaxStrBytes); err != nil {
			return m, err
		}
		w, err := r.U16()
		if err != nil {
			return m, err
		}
		h, err := r.U16()
		if err != nil {
			return m, err
		}
		s.W, s.H = int(w), int(h)
		flags, err := r.U8()
		if err != nil {
			return m, err
		}
		if flags&^0x01 != 0 {
			return m, fmt.Errorf("fleet: nonzero meta spec flag padding: %w", ErrBadMessage)
		}
		s.UnknownVB = flags&1 != 0
		seed, err := r.U64()
		if err != nil {
			return m, err
		}
		s.Seed = int64(seed)
		m.Specs = append(m.Specs, s)
	}
	if r.Remaining() != 0 {
		return m, fmt.Errorf("fleet: %d trailing meta bytes: %w", r.Remaining(), ErrBadMessage)
	}
	return m, nil
}

// VerifyMeta parses and CRC-verifies a BBFM meta blob without acting
// on it — the scrubber's integrity hook for the reserved meta record.
func VerifyMeta(b []byte) error {
	_, err := decodeMeta(b)
	return err
}

// saveMeta persists the coordinator's current epoch, membership, and
// session specs into the store — the breadcrumb a successor takes over
// from. A draining shard is listed as a member, so a successor scans
// the sessions its drain failed to move (and keeps it on the ring).
// Best-effort: a failed write is logged, not fatal (the next state
// change retries it). A deposed coordinator writes none: its stale
// session list would hide the successor's sessions from the next
// takeover and the scrubber.
func (c *Coordinator) saveMeta() {
	if c.deposed.Load() {
		return
	}
	c.mu.Lock()
	members := c.shardsLocked(RoleActive, RoleProbation, RoleDown, RoleDraining)
	m := fleetMeta{Epoch: c.epoch, Vnodes: c.cfg.Vnodes, Members: members, Weights: map[string]int{}}
	for _, a := range m.Members {
		m.Weights[a] = c.shards[a].weight
	}
	ids := make([]string, 0, len(c.sessions))
	for id := range c.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		m.Specs = append(m.Specs, c.sessions[id].spec)
	}
	c.mu.Unlock()
	blob, err := encodeMeta(m)
	if err == nil {
		err = c.cfg.Store.Save(MetaKey, blob)
	}
	if err != nil {
		c.logf("fleet: persist meta: %v", err)
	}
}

// resolveStore applies the same Store/Stores precedence NewCoordinator
// does, without requiring a live coordinator.
func resolveStore(cfg CoordinatorConfig) (session.CheckpointStore, error) {
	if len(cfg.Stores) > 0 {
		return session.NewQuorumStore(cfg.Stores, cfg.ReplicaFactor, cfg.WriteQuorum)
	}
	if cfg.Store == nil {
		return nil, errors.New("fleet: takeover requires a checkpoint store (Store or Stores)")
	}
	return cfg.Store, nil
}

// TakeOver builds the active coordinator from a predecessor's persisted
// state — the acquisition step of leased election. cfg.Shards is
// ignored — membership comes from the persisted meta blob; the store
// fields must point at (a surviving replica of) the deposed
// coordinator's stores. TakeOver:
//
//  1. loads and verifies the BBFM blob,
//  2. assumes cfg.Epoch, or the blob's epoch+1 when that is higher,
//     and fences every member shard with it — from that instant the
//     old coordinator's mutations die with CodeFenced,
//  3. rebuilds routing from live shard status (reality wins over any
//     stale record of placement),
//  4. re-resumes every session found on no shard from its replicated
//     checkpoint.
//
// Unreachable shards are marked down exactly as if they had failed
// under the old coordinator.
func TakeOver(cfg CoordinatorConfig) (*Coordinator, error) {
	store, err := resolveStore(cfg)
	if err != nil {
		return nil, err
	}
	blob, err := store.Load(MetaKey)
	if session.IsMissing(err) {
		return nil, fmt.Errorf("%w: %v", ErrNoMeta, err)
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: takeover: read meta: %w", err)
	}
	m, err := decodeMeta(blob)
	if err != nil {
		return nil, fmt.Errorf("fleet: takeover: %w", err)
	}
	if len(m.Members) == 0 {
		return nil, errors.New("fleet: takeover: meta blob lists no members")
	}
	cfg.Shards = m.Members
	if cfg.Vnodes == 0 {
		cfg.Vnodes = m.Vnodes
	}
	if cfg.Weights == nil {
		cfg.Weights = m.Weights
	}
	if cfg.Epoch <= m.Epoch {
		cfg.Epoch = m.Epoch + 1
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	for _, s := range m.Specs {
		c.sessions[s.ID] = &placement{spec: s}
	}
	c.mu.Unlock()

	// Fence every shard at the new epoch and learn what actually lives
	// where: dialing fences (clientLocked) and the shard's status row
	// enumerates placement.
	found := make(map[string]string, len(m.Specs))
	for _, addr := range m.Members {
		c.mu.Lock()
		cl, cerr := c.clientLocked(addr)
		c.mu.Unlock()
		var row ShardStatus
		if cerr == nil {
			row, cerr = cl.shardStatus()
		}
		if cerr != nil {
			if errors.Is(cerr, ErrDeposed) {
				c.Close()
				return nil, fmt.Errorf("fleet: takeover raced a higher epoch: %w", cerr)
			}
			c.logf("fleet: takeover: shard %s unreachable (%v); marking down", addr, cerr)
			c.mu.Lock()
			c.loseLocked(addr)
			c.mu.Unlock()
			continue
		}
		c.mu.Lock()
		for _, sl := range row.Sess {
			p := c.sessions[sl.ID]
			switch first, dup := found[sl.ID]; {
			case p == nil:
				c.logf("fleet: takeover: session %q on %s is not in the fleet meta; ignoring it", sl.ID, addr)
			case dup:
				c.logf("fleet: takeover: session %q found on %s and %s; keeping the first", sl.ID, first, addr)
			default:
				found[sl.ID] = addr
			}
		}
		c.mu.Unlock()
	}

	// Once every unreachable shard is down, where the ring skips it, a
	// located session settles where it was found: pinned there only
	// when the ring homes it elsewhere. Every recorded session found on
	// no live shard is recovered.
	var orphans []string
	c.mu.Lock()
	for id, p := range c.sessions {
		if addr, ok := found[id]; ok {
			c.settleLocked(p, id, addr)
		} else {
			orphans = append(orphans, id)
		}
	}
	c.mu.Unlock()
	sort.Strings(orphans)
	for _, id := range orphans {
		if err := c.recoverSession(id); err != nil {
			c.recoverFail.Add(1)
			c.logf("fleet: takeover: recover %q: %v", id, err)
		}
	}
	c.saveMeta()
	c.logf("fleet: takeover complete: epoch %d, %d members, %d sessions (%d recovered)",
		c.epoch, len(m.Members), len(m.Specs), len(orphans))
	return c, nil
}
