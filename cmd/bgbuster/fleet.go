package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/bgbuster/bgbuster"
	"github.com/bgbuster/bgbuster/internal/fleet"
	"github.com/bgbuster/bgbuster/internal/fleet/autopilot"
	"github.com/bgbuster/bgbuster/internal/session"
)

// runShard boots one worker shard: a session.Manager served over the
// fleet wire protocol. Reconstruction options are derived per session
// from the OpenSpec the coordinator sends (geometry, unknown-VB flag,
// seed), so one shard binary serves any mix of calls.
func runShard(args []string) error {
	fs := flag.NewFlagSet("shard", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7601", "address to serve the fleet wire protocol on")
	ckptDir := fs.String("checkpoint-dir", "", "durable checkpoint directory (empty: none)")
	ckptEvery := fs.Duration("checkpoint-every", 30*time.Second, "periodic checkpoint interval (with -checkpoint-dir)")
	restart := fs.Bool("restart", true, "auto-restart failed sessions from their last-good checkpoint")
	maxRestarts := fs.Int("max-restarts", 5, "circuit breaker: restarts per session per minute")
	maxSessions := fs.Int("max-sessions", 0, "admission control: max open sessions (0: unlimited)")
	memBudget := fs.Int64("mem-budget", 0, "admission control: max summed stream footprint in bytes (0: unlimited)")
	join := fs.String("join", "", "coordinator address to join on startup (empty: wait to be listed)")
	advertise := fs.String("advertise", "", "address announced to the coordinator (default: the bound -listen address)")
	drainOnSigterm := fs.Bool("drain-on-sigterm", false, "ask the -join coordinator to migrate sessions off this shard before exiting")
	weight := fs.Int("weight", 0, "capacity weight announced to the -join coordinator (0: leave at 1; vnode multiplier, bigger = more sessions)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *drainOnSigterm && *join == "" {
		return fmt.Errorf("shard: -drain-on-sigterm requires -join (who would we ask?)")
	}
	if *weight != 0 && *join == "" {
		return fmt.Errorf("shard: -weight requires -join (the coordinator holds the weights)")
	}

	cfg := session.Config{
		MaxSessions: *maxSessions,
		MemBudget:   *memBudget,
		AutoRestart: *restart,
		MaxRestarts: *maxRestarts,
		Logf:        func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
	}
	if *ckptDir != "" {
		store, err := session.NewDirStore(*ckptDir)
		if err != nil {
			return err
		}
		cfg.Checkpoints = store
		cfg.CheckpointInterval = *ckptEvery
	}
	mgr := session.NewManager(cfg)
	defer mgr.Close()

	sh, err := fleet.NewShard(fleet.ShardConfig{
		Manager:    mgr,
		OptionsFor: shardOptions,
		Logf:       cfg.Logf,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("shard: serving sessions on %s\n", ln.Addr())

	// Elastic membership: announce ourselves to a running coordinator
	// (which migrates the sessions whose arcs now map here), and on
	// SIGTERM optionally ask it to migrate them off again before we go.
	announced := *advertise
	if announced == "" {
		announced = ln.Addr().String()
	}
	if *join != "" {
		cl, jerr := fleet.Dial(*join, fleet.Limits{})
		if jerr == nil {
			jerr = cl.Join(announced)
			if jerr == nil && *weight != 0 {
				jerr = cl.SetWeight(announced, *weight)
			}
			cl.Close()
		}
		if jerr != nil {
			ln.Close()
			return fmt.Errorf("shard: join via %s: %w", *join, jerr)
		}
		if *weight != 0 {
			fmt.Printf("shard: joined fleet via %s as %s (weight %d)\n", *join, announced, *weight)
		} else {
			fmt.Printf("shard: joined fleet via %s as %s\n", *join, announced)
		}
	}
	onSignal := func() {}
	if *drainOnSigterm {
		onSignal = func() {
			cl, derr := fleet.Dial(*join, fleet.Limits{})
			if derr == nil {
				derr = cl.DrainShard(announced)
				cl.Close()
			}
			if derr != nil {
				fmt.Fprintf(os.Stderr, "shard: drain on sigterm: %v\n", derr)
				return
			}
			fmt.Printf("shard: drained %s out of the fleet\n", announced)
		}
	}
	return serveUntilSignal(ln, func() error { return sh.Serve(ln) }, onSignal)
}

// shardOptions derives a session's reconstruction options from its
// OpenSpec (geometry, unknown-VB flag, seed): the shard process and
// in-process gallery ingestion use the same derivation.
func shardOptions(spec fleet.OpenSpec) bgbuster.ReconstructOptions {
	return bgbuster.StreamAttackOptions(spec.W, spec.H, spec.UnknownVB, spec.Seed)
}

// runServe boots the fleet coordinator: consistent-hash routing of
// session ids over worker shards, quorum checkpoint replication,
// health-probed routing, shard-loss recovery onto the survivors. With
// -elect the process is a candidate: it waits for the coordinator lease,
// only then acquires the fleet and starts serving (candidate.acquire),
// and stops serving and contends again whenever it loses the lease.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7600", "address to serve the fleet wire protocol on")
	shards := fs.String("shards", "", "comma-separated worker shard addresses (required; the first elected coordinator builds the ring from them)")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per shard on the hash ring (0: default 64)")
	ckptDir := fs.String("checkpoint-dir", "", "replicated checkpoint directories, comma-separated for multiple replicas (empty: in-memory)")
	replicas := fs.Int("replicas", 0, "replica factor N: stores written per checkpoint (0: all listed)")
	writeQuorum := fs.Int("write-quorum", 0, "write quorum W: successful replica writes required (0: majority of N)")
	replicate := fs.Duration("replicate-every", 15*time.Second, "checkpoint replication interval (0: on demand only)")
	probeEvery := fs.Duration("probe-every", 5*time.Second, "shard health probe interval (0: probes off)")
	autopilotOn := fs.Bool("autopilot", false, "run the hands-off control plane: load-aware rebalancing, auto re-admission, checkpoint scrubbing")
	rebalThresh := fs.Float64("rebalance-threshold", 0, "imbalance score that triggers rebalancing (0: default 0.25)")
	planEvery := fs.Duration("plan-every", 0, "rebalancing pass cadence (0: default 15s)")
	readmitAfter := fs.Int("readmit-after", 0, "consecutive healthy probes before a down shard is re-admitted (0: default 3)")
	quarantine := fs.Duration("quarantine", 0, "probation window between re-admission and full promotion (0: default 60s)")
	scrubEvery := fs.Duration("scrub-every", 0, "checkpoint scrub cadence (0: default 60s)")
	elect := fs.Bool("elect", false, "contend for the coordinator lease in the checkpoint store; acquire the fleet and serve only once elected")
	candidateID := fs.String("candidate-id", "", "this candidate's name in the lease record (default: host:listen)")
	leaseTTL := fs.Duration("lease-ttl", 0, "coordinator lease duration (0: default 15s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *elect && !*autopilotOn {
		return fmt.Errorf("serve: -elect requires -autopilot (the elector gates its policy loops)")
	}
	addrs := strings.Split(*shards, ",")
	clean := addrs[:0]
	for _, a := range addrs {
		if a = strings.TrimSpace(a); a != "" {
			clean = append(clean, a)
		}
	}
	if len(clean) == 0 {
		return fmt.Errorf("serve: -shards is required (comma-separated addresses)")
	}

	ccfg := fleet.CoordinatorConfig{
		Shards: clean,
		Vnodes: *vnodes,
		Health: fleet.HealthConfig{ProbeInterval: *probeEvery},
		Logf:   func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
	}
	var stores []session.CheckpointStore
	for _, dir := range strings.Split(*ckptDir, ",") {
		if dir = strings.TrimSpace(dir); dir == "" {
			continue
		}
		store, err := session.NewDirStore(dir)
		if err != nil {
			return err
		}
		stores = append(stores, store)
	}
	ccfg.Store = session.NewMemStore()
	switch {
	case len(stores) == 1 && *replicas == 0 && *writeQuorum == 0:
		ccfg.Store = stores[0]
	case len(stores) > 0:
		qs, err := session.NewQuorumStore(stores, *replicas, *writeQuorum)
		if err != nil {
			return err
		}
		ccfg.Store = qs
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	var cand *candidate
	if *elect {
		id := *candidateID
		if id == "" {
			host, _ := os.Hostname()
			id = host + "/" + *listen
		}
		var err error
		if cand, err = newCandidate(autopilot.ElectorConfig{Store: ccfg.Store, ID: id, TTL: *leaseTTL, Logf: ccfg.Logf}, ccfg); err != nil {
			return err
		}
		defer cand.elector.Resign() // runs after the last term's ap.Close: hand the lease on without waiting out its TTL
		fmt.Printf("serve: %s contending for the coordinator lease\n", id)
	}

	// serveTerm serves coord until a signal (nil), a lost lease
	// (errDeposed), or a serving error.
	serveTerm := func(coord *fleet.Coordinator, lost <-chan struct{}) error {
		stopRepl := make(chan struct{})
		defer close(stopRepl)
		if *replicate > 0 {
			go func() {
				// Jittered cadence (±25%) so many coordinators sharing a
				// replica backend don't slam it in lockstep.
				rng := rand.New(rand.NewSource(time.Now().UnixNano()))
				for {
					select {
					case <-stopRepl:
						return
					case <-time.After(fleet.Jittered(rng, *replicate)):
						if err := coord.Replicate(); err != nil {
							fmt.Fprintf(os.Stderr, "serve: replicate: %v\n", err)
						}
					}
				}
			}()
		}
		if *autopilotOn {
			apCfg := autopilot.Config{
				Coordinator:  coord,
				HighWater:    *rebalThresh,
				PlanEvery:    *planEvery,
				ReadmitAfter: *readmitAfter,
				Quarantine:   *quarantine,
				ScrubEvery:   *scrubEvery,
				Seed:         time.Now().UnixNano(),
				Logf:         ccfg.Logf,
			}
			if cand != nil {
				apCfg.Elector = cand.elector
			}
			ap, err := autopilot.New(apCfg)
			if err != nil {
				return err
			}
			ap.Start()
			defer ap.Close()
			fmt.Printf("serve: autopilot engaged (threshold %.2f, elect %v)\n", ap.Status().Threshold, *elect)
		}
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		fmt.Printf("serve: coordinating %d shards on %s\n", len(coord.Members()), ln.Addr())
		done := make(chan error, 1)
		go func() { done <- fleet.Serve(ln, coord, fleet.Limits{}, ccfg.Logf) }()
		select {
		case err = <-done:
			return err
		case <-sigc:
		case <-lost:
			err = errDeposed
		}
		ln.Close()
		<-done
		return err
	}

	for {
		var coord *fleet.Coordinator
		var lost <-chan struct{}
		var err error
		if cand != nil {
			coord, lost, err = cand.acquire(sigc)
		} else {
			coord, err = fleet.NewCoordinator(ccfg)
		}
		if err != nil {
			return err
		}
		err = serveTerm(coord, lost)
		coord.Close()
		if err != errDeposed {
			return err
		}
		fmt.Fprintf(os.Stderr, "serve: stopped serving the deposed coordinator; contending for the lease again\n")
	}
}

// runStats dials a running coordinator and prints, from one status
// snapshot, its aggregate fleet counters, per-shard table and — when
// the autopilot is engaged — its policy counters and lease, so an
// operator can watch a rebalance, re-admission, drain or election
// converge. Per-shard sample failures degrade to a DOWN/? placeholder
// row; they never fail the whole command.
func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7600", "coordinator address")
	verbose := fs.Bool("v", false, "also list open session ids")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cl, err := fleet.Dial(*addr, fleet.Limits{})
	if err != nil {
		return err
	}
	defer cl.Close()
	st, err := cl.Status()
	if err != nil {
		return err
	}
	var opened, restores, restarts uint64
	var ids []string
	probation := 0
	for _, r := range st.Shards {
		opened, restores, restarts = opened+r.Opened, restores+r.Restores, restarts+r.Restarts
		for _, s := range r.Sess {
			ids = append(ids, s.ID)
		}
		if r.Role == fleet.RoleProbation {
			probation++
		}
	}
	fmt.Printf("fleet %s  epoch %d\n", *addr, st.Epoch)
	fmt.Printf("sessions open %d  opened %d  restores %d  restarts %d  migrations %d\n",
		len(ids), opened, restores, restarts, st.Migrations)

	if ai := st.Auto; ai.Enabled {
		fmt.Printf("autopilot: imbalance %.3f (threshold %.2f)  passes %d  moves %d  readmitted %d  promoted %d  probation %d\n",
			ai.Imbalance, ai.Threshold, ai.Passes, ai.Moves, ai.Readmitted, ai.Promoted, probation)
		fmt.Printf("scrub: checked %d  repaired %d  swept %d  stuck %d  orphaned-deletes %d\n",
			ai.ScrubChecked, ai.ScrubRepairs, ai.ScrubSwept, ai.ScrubStuck, ai.OrphanDels)
		if ai.LeaseHolder != "" {
			held := "follower"
			if ai.LeaseHeld {
				held = "leader"
			}
			fmt.Printf("lease: %s  held-by %s  term %d  epoch %d  expires %s\n",
				held, ai.LeaseHolder, ai.LeaseTerm, ai.LeaseEpoch,
				time.Unix(0, ai.LeaseExpires).UTC().Format(time.RFC3339))
		}
	}

	fmt.Printf("%-28s %-9s %3s %5s %9s %8s\n", "SHARD", "ROLE", "WT", "SESS", "MEM", "FEED-us")
	for _, r := range st.Shards {
		if r.Err != "" {
			// Placeholder row: the shard could not be sampled.
			fmt.Printf("%-28s %-9s %3d %5s %9s %8s DOWN (%s)\n", r.Addr, r.Role, r.Weight, "?", "?", "?", r.Err)
			continue
		}
		fmt.Printf("%-28s %-9s %3d %5d %9s %8d\n",
			r.Addr, r.Role, r.Weight, len(r.Sess), fmtBytes(r.Mem), r.FeedMicros)
	}
	if *verbose {
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Printf("session %s\n", id)
		}
	}
	return nil
}

// errDeposed ends a serve -elect term whose lease was lost.
var errDeposed = errors.New("serve: lost the coordinator lease")

// candidate is a serve -elect process's stake in the coordinator lease —
// the one coordinator failover path. One elector lives as long as the
// process. Each time it wins the lease, acquire builds the fleet anew at
// the lease epoch; each time it loses the lease, that term's coordinator
// self-fences and the channel acquire returned closes, so the caller
// stops serving and contends again. A re-elected candidate never keeps
// the lease over a deposed coordinator.
type candidate struct {
	elector *autopilot.Elector
	ccfg    fleet.CoordinatorConfig

	mu    sync.Mutex
	epoch uint64             // fencing epoch of the last won lease
	coord *fleet.Coordinator // this term's coordinator (nil while acquiring)
	lost  chan struct{}      // closed when this term's lease is lost (nil between terms)
}

func newCandidate(ecfg autopilot.ElectorConfig, ccfg fleet.CoordinatorConfig) (*candidate, error) {
	c := &candidate{ccfg: ccfg}
	ecfg.OnElected = func(term, epoch uint64) {
		fmt.Printf("serve: %s holds the coordinator lease (term %d, epoch %d)\n", ecfg.ID, term, epoch)
		c.mu.Lock()
		c.epoch = epoch
		c.mu.Unlock()
	}
	ecfg.OnDeposed = func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.coord != nil {
			c.coord.Depose()
		}
		if c.lost != nil {
			close(c.lost)
			c.lost = nil
		}
		fmt.Fprintf(os.Stderr, "serve: lost the coordinator lease; self-fenced (mutations now refuse with ErrDeposed)\n")
	}
	var err error
	c.elector, err = autopilot.NewElector(ecfg)
	return c, err
}

// acquire ticks the elector once a second until it holds the lease (a
// signal on stop abandons the contest), then acquires the fleet at the
// lease epoch. A failed acquisition resigns the lease and contends
// again.
func (c *candidate) acquire(stop <-chan os.Signal) (*fleet.Coordinator, <-chan struct{}, error) {
	for {
		if err := c.elector.Tick(); err != nil {
			fmt.Fprintf(os.Stderr, "serve: election: %v\n", err)
		}
		if leading, _ := c.elector.Leading(); leading {
			coord, lost, err := c.take()
			if err == nil {
				return coord, lost, nil
			}
			c.elector.Resign()
			fmt.Fprintf(os.Stderr, "serve: acquire fleet: %v; contending again\n", err)
		}
		select {
		case <-stop:
			return nil, nil, errors.New("serve: interrupted before acquiring the fleet")
		case <-time.After(time.Second):
		}
	}
}

// take acquires the fleet at the held lease's epoch: TakeOver from the
// predecessor's persisted meta, or — on first boot, when no replica
// holds any — a fresh coordinator over ccfg.Shards. Any other failure
// to read the meta fails the acquisition: a fresh coordinator knows no
// sessions, and its scrubber would sweep their checkpoints. Either way
// every shard is fenced at the lease epoch before the caller serves, so
// a deposed predecessor's mutations die at the shards. The elector
// keeps renewing the lease meanwhile; losing it fails the acquisition.
func (c *candidate) take() (*fleet.Coordinator, <-chan struct{}, error) {
	lost := make(chan struct{})
	c.mu.Lock()
	c.coord, c.lost = nil, lost
	ccfg := c.ccfg
	ccfg.Epoch = c.epoch
	c.mu.Unlock()

	halt, halted := make(chan struct{}), make(chan struct{})
	go func() { defer close(halted); c.elector.Run(halt, int64(ccfg.Epoch)) }()
	coord, err := fleet.TakeOver(ccfg)
	if errors.Is(err, fleet.ErrNoMeta) {
		coord, err = fleet.NewCoordinator(ccfg)
	}
	close(halt)
	<-halted
	// Renew once more: the autopilot's elector loop first ticks up to
	// 5/8 of a TTL after it starts.
	if leading, _ := c.elector.Leading(); leading {
		if terr := c.elector.Tick(); terr != nil {
			fmt.Fprintf(os.Stderr, "serve: election: %v\n", terr)
		}
	}

	c.mu.Lock()
	select {
	case <-lost:
		if err == nil {
			err = errDeposed
		}
	default:
		if err == nil {
			c.coord = coord
			c.mu.Unlock()
			return coord, lost, nil
		}
		c.lost = nil
	}
	c.mu.Unlock()
	if coord != nil {
		coord.Close()
	}
	return nil, nil, fmt.Errorf("epoch %d: %w", ccfg.Epoch, err)
}

// serveUntilSignal runs serve until SIGINT/SIGTERM closes the
// listener; the resulting accept error then reads as a clean exit. On
// signal, onSignal runs first (e.g. draining this shard out of the
// fleet).
func serveUntilSignal(ln net.Listener, serve func() error, onSignal func()) error {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	done := make(chan error, 1)
	go func() { done <- serve() }()
	select {
	case <-sigc:
		onSignal()
		ln.Close()
		<-done
		return nil
	case err := <-done:
		return err
	}
}
