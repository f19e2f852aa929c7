// Command bgbuster runs the Background Buster pipeline on one synthetic
// call: compose a virtual-background recording, reconstruct the real
// background, run the inference attacks, and dump visual artefacts
// (PNGs and a .bbv raw video) for inspection.
//
// Usage:
//
//	bgbuster attack    [-phase e1|e2|e3] [-index N] [-vb name] [-software zoom|skype] [-mitigate] [-out dir]
//	bgbuster decompose [-phase e1|e2|e3] [-index N] [-frame N] [-out dir]
//	bgbuster list      [-phase e1|e2|e3]
//	bgbuster live      [-in call.bbv] [-sessions N] [-rate fps] [-every dur] [-out dir]
//	                   [-checkpoint-dir dir] [-checkpoint-every dur]
//	                   [-chaos profile] [-noise-gate frac] [-stall-timeout dur] [-close-timeout dur]
//	                   [-restart] [-max-restarts N] [-max-sessions N] [-mem-budget bytes]
//	bgbuster shard     [-listen addr] [-checkpoint-dir dir] [-restart] [-max-sessions N] [-mem-budget bytes]
//	                   [-join coord] [-advertise addr] [-drain-on-sigterm]
//	bgbuster serve     [-listen addr] -shards a,b,... [-vnodes N] [-checkpoint-dir d1,d2,...] [-replicate-every dur]
//	                   [-replicas N] [-write-quorum W] [-probe-every dur]
//	                   [-autopilot [-elect [-candidate-id id] [-lease-ttl dur]]]
//	bgbuster stats     [-addr coord] [-v]
//
// live drives the concurrent session layer (internal/session): it
// replays a .bbv recording — or composes a synthetic call — through N
// live reconstruction sessions at the call's frame rate, printing
// periodic per-stage stats without pausing any session. With
// -checkpoint-dir every session durably checkpoints its stream; a
// later run with the same directory resumes each call where it left
// off and feeds only the remaining frames. -chaos injects seeded
// stream faults (drop/dup/reorder/corrupt/geom/stall/poison; see
// internal/faultinject) into every session's feed — each session gets
// a decorrelated seed — to rehearse degraded operation, and
// -noise-gate arms the impulse-noise quality gate that screens
// corrupted frames out of the reconstruction (DESIGN.md §12).
//
// -restart arms the supervisor: a session whose worker dies is
// resurrected from its last-good checkpoint as a new incarnation, with
// a circuit breaker (-max-restarts within a minute) guarding against
// crash loops. -max-sessions and -mem-budget arm fleet admission
// control: opening past either limit is refused with a typed error
// instead of overcommitting the fleet (DESIGN.md §13).
//
// shard and serve distribute the session layer across processes
// (DESIGN.md §15, §17): shard fronts one session manager with the
// fleet's length-prefixed, budget-checked wire protocol; serve runs
// the coordinator that consistent-hashes session ids onto shards,
// replicates checkpoints, live-migrates running calls between shards,
// and re-resumes a dead shard's sessions on the survivors from their
// last replicated checkpoints. The elastic layer on top: a shard with
// -join announces itself to a live coordinator and takes over exactly
// the sessions whose hash arcs move; -drain-on-sigterm asks the fleet
// to migrate its sessions away before exiting. serve accepts multiple
// -checkpoint-dir directories as quorum replicas (-replicas/-write-
// quorum), health-probes shards (-probe-every), and with -elect waits
// for the coordinator lease, then takes the fleet over at the lease's
// fencing epoch, so a dead leader's successor fences it out. stats
// prints a running fleet's counters and per-shard health table.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/bgbuster/bgbuster"
	"github.com/bgbuster/bgbuster/internal/compositor"
	"github.com/bgbuster/bgbuster/internal/dataset"
	"github.com/bgbuster/bgbuster/internal/faultinject"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/person"
	"github.com/bgbuster/bgbuster/internal/segment"
	"github.com/bgbuster/bgbuster/internal/session"
	"github.com/bgbuster/bgbuster/internal/vidstream"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bgbuster:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: bgbuster <attack|decompose|list|live|shard|serve|stats> [flags]")
	}
	switch args[0] {
	case "attack":
		return runAttack(args[1:])
	case "decompose":
		return runDecompose(args[1:])
	case "list":
		return runList(args[1:])
	case "live":
		return runLive(args[1:])
	case "shard":
		return runShard(args[1:])
	case "serve":
		return runServe(args[1:])
	case "stats":
		return runStats(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// callFlags parses the shared call-selection flags.
func callFlags(fs *flag.FlagSet) (phase *string, index *int) {
	phase = fs.String("phase", "e1", "dataset phase: e1, e2 or e3")
	index = fs.Int("index", 0, "call index within the phase")
	return
}

func pickCall(phase string, index int) (*dataset.Call, error) {
	cfg := bgbuster.DefaultDatasetConfig()
	var calls []*dataset.Call
	switch phase {
	case "e1":
		calls = bgbuster.E1Calls(cfg)
	case "e2":
		calls = bgbuster.E2Calls(cfg)
	case "e3":
		calls = bgbuster.E3Calls(cfg)
	default:
		return nil, fmt.Errorf("unknown phase %q", phase)
	}
	if index < 0 || index >= len(calls) {
		return nil, fmt.Errorf("index %d out of range (phase %s has %d calls)", index, phase, len(calls))
	}
	return calls[index], nil
}

func runAttack(args []string) error {
	fs := flag.NewFlagSet("attack", flag.ContinueOnError)
	phase, index := callFlags(fs)
	vbName := fs.String("vb", "beach", "built-in virtual background name")
	software := fs.String("software", "zoom", "compositor profile: zoom or skype")
	mitigated := fs.Bool("mitigate", false, "apply the dynamic virtual background mitigation")
	out := fs.String("out", "bgbuster-out", "output directory")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	call, err := pickCall(*phase, *index)
	if err != nil {
		return err
	}
	rendered, err := call.Render()
	if err != nil {
		return err
	}

	opts := bgbuster.AttackOptions{VirtualName: *vbName, Seed: *seed}
	switch *software {
	case "zoom":
	case "skype":
		p := bgbuster.SkypeProfile()
		opts.Profile = &p
	default:
		return fmt.Errorf("unknown software %q", *software)
	}
	if *mitigated {
		opts.Mitigation = bgbuster.DynamicVirtualBackground(*seed + 99)
	}

	res, err := bgbuster.Attack(rendered, opts)
	if err != nil {
		return err
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	writes := map[string]error{
		"recovered.png":  res.Reconstruction.Recovered.WritePNG(filepath.Join(*out, "recovered.png")),
		"coverage.png":   res.Reconstruction.Coverage.ToImage().WritePNG(filepath.Join(*out, "coverage.png")),
		"truth.png":      rendered.TrueBackground.WritePNG(filepath.Join(*out, "truth.png")),
		"blended.bbv":    vidstream.Save(filepath.Join(*out, "blended.bbv"), res.Composed.Blended),
		"firstframe.png": res.Composed.Blended.Frames[0].WritePNG(filepath.Join(*out, "firstframe.png")),
	}
	for name, werr := range writes {
		if werr != nil {
			return fmt.Errorf("write %s: %w", name, werr)
		}
	}

	fmt.Printf("call %s (%s), software=%s vb=%s mitigated=%v\n", call.ID, *phase, *software, *vbName, *mitigated)
	fmt.Printf("  identified VB: %q (mode %s)\n", res.Reconstruction.VBName, res.Reconstruction.VBMode)
	fmt.Printf("  claimed RBRR:   %6.2f%%\n", res.Verification.ClaimedPct)
	fmt.Printf("  verified:       %6.2f%%\n", res.Verification.TruePct)
	fmt.Printf("  precision:      %6.3f\n", res.Verification.Precision)
	fmt.Printf("artefacts written to %s/\n", *out)
	return nil
}

func runDecompose(args []string) error {
	fs := flag.NewFlagSet("decompose", flag.ContinueOnError)
	phase, index := callFlags(fs)
	frame := fs.Int("frame", 0, "frame to decompose")
	out := fs.String("out", "bgbuster-out", "output directory")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	call, err := pickCall(*phase, *index)
	if err != nil {
		return err
	}
	rendered, err := call.Render()
	if err != nil {
		return err
	}
	w, h := rendered.Raw.Size()
	vb := compositor.StaticImage{Img: compositor.BuiltinImage("beach", w, h)}
	composed, err := bgbuster.Compose(rendered.Raw, rendered.Silhouettes, bgbuster.ZoomProfile(), vb, nil, *seed)
	if err != nil {
		return err
	}
	if *frame < 0 || *frame >= composed.Blended.Len() {
		return fmt.Errorf("frame %d out of range (%d frames)", *frame, composed.Blended.Len())
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	// The paper's Figure 3 decomposition: f^i and the four components.
	comps := composed.Components[*frame]
	f := composed.Blended.Frames[*frame]
	files := map[string]error{
		"frame.png": f.WritePNG(filepath.Join(*out, "frame.png")),
		"vc.png":    f.ApplyMask(comps.VC).WritePNG(filepath.Join(*out, "vc.png")),
		"lb.png":    f.ApplyMask(comps.LB).WritePNG(filepath.Join(*out, "lb.png")),
		"bb.png":    f.ApplyMask(comps.BB).WritePNG(filepath.Join(*out, "bb.png")),
		"vb.png":    f.ApplyMask(comps.VB).WritePNG(filepath.Join(*out, "vb.png")),
	}
	for name, werr := range files {
		if werr != nil {
			return fmt.Errorf("write %s: %w", name, werr)
		}
	}
	fmt.Printf("frame %d of %s decomposed (VC %.1f%%, LB %.1f%%, BB %.1f%%, VB %.1f%%) into %s/\n",
		*frame, call.ID,
		comps.VC.Fraction()*100, comps.LB.Fraction()*100,
		comps.BB.Fraction()*100, comps.VB.Fraction()*100, *out)
	return nil
}

// liveCallID names the i-th session of a live replay.
func liveCallID(i int) string { return fmt.Sprintf("call-%02d", i) }

// liveCallSeed derives the per-session option seed for a live session
// id. Fresh opens use base+index, and a resumed id must get exactly
// the seed its original incarnation was opened with — resuming every
// call under the bare base seed (the old behaviour) re-rolled each
// segmenter's dither sequence, so a resumed synthetic call silently
// diverged from its own pre-restart evolution.
func liveCallSeed(base int64, id string) int64 {
	if n, ok := strings.CutPrefix(id, "call-"); ok {
		if idx, err := strconv.Atoi(n); err == nil && idx >= 0 {
			return base + int64(idx)
		}
	}
	return base
}

// resumeOffset converts a restored session's cumulative stream frame
// counter into the replay index to continue from. StreamFrames counts
// frames already fed — frames [0, StreamFrames) are inside the
// checkpoint — so the next frame to deliver is exactly
// video.Frames[StreamFrames]: starting below it would double-feed the
// boundary frame, starting above it would skip one. The clamp covers a
// checkpoint written by a longer replay than this run's.
func resumeOffset(streamFrames uint64, total int) int {
	if streamFrames > uint64(total) {
		return total
	}
	return int(streamFrames)
}

func runLive(args []string) error {
	fs := flag.NewFlagSet("live", flag.ContinueOnError)
	phase, index := callFlags(fs)
	in := fs.String("in", "", "replay a .bbv recording instead of composing a synthetic call (oracle-less: the segmenter sees empty silhouettes)")
	vbName := fs.String("vb", "beach", "built-in virtual background name (synthetic call)")
	software := fs.String("software", "zoom", "compositor profile: zoom or skype (synthetic call)")
	sessions := fs.Int("sessions", 4, "number of concurrent live sessions replaying the call")
	frames := fs.Int("frames", 0, "truncate the call to this many frames (0: all)")
	unknownVB := fs.Bool("unknown-vb", false, "derive the virtual background online instead of using the dictionary")
	rate := fs.Float64("rate", 0, "replay rate in fps (0: the call's own FPS, negative: unpaced)")
	every := fs.Duration("every", 2*time.Second, "stats reporting period")
	queue := fs.Int("queue", 0, "per-session frame queue depth (0: default)")
	idle := fs.Duration("idle", 0, "evict sessions idle for this long (0: never)")
	seed := fs.Int64("seed", 1, "random seed (each session perturbs it)")
	out := fs.String("out", "", "write each session's recovered background PNG to this directory")
	ckptDir := fs.String("checkpoint-dir", "", "durably checkpoint every session to this directory and resume any checkpoints found there on start")
	ckptEvery := fs.Duration("checkpoint-every", 5*time.Second, "periodic checkpoint interval (needs -checkpoint-dir)")
	chaosSpec := fs.String("chaos", "", "seeded fault-injection profile for every session's feed, e.g. drop=0.2,corrupt=0.05,seed=7")
	noiseGate := fs.Float64("noise-gate", 0, "reject frames whose impulse-noise score exceeds this fraction (0: gate off)")
	stallTimeout := fs.Duration("stall-timeout", 0, "degrade sessions with no stream activity for this long (0: watchdog off)")
	closeTimeout := fs.Duration("close-timeout", 0, "abandon sessions still draining this long into shutdown (0: wait)")
	restart := fs.Bool("restart", false, "auto-restart failed sessions from their last-good checkpoint as new incarnations (best with -checkpoint-dir)")
	maxRestarts := fs.Int("max-restarts", 0, "circuit breaker: restarts allowed per session within a sliding minute before it is permanently failed (0: default 5; needs -restart)")
	maxSessions := fs.Int("max-sessions", 0, "admission control: refuse opening more than this many concurrent sessions (0: unlimited)")
	memBudget := fs.Int64("mem-budget", 0, "admission control: refuse sessions past this fleet memory budget in bytes (0: unlimited)")
	galleryMode := fs.Bool("gallery", false, "gallery ingest: demux ONE composite meeting stream into per-participant sessions (DESIGN.md §16); -sessions becomes the participant count, -in replays a composite .bbv")
	connect := fs.String("connect", "", "with -gallery: drive a fleet coordinator (bgbuster serve) at this address instead of a local manager")
	speakerEvery := fs.Int("speaker-every", 0, "with -gallery: rotate an active speaker to slot 0 every N frames (0: plain grid)")
	pageSize := fs.Int("page-size", 0, "with -gallery: paginate the grid to N visible tiles (0: everyone visible)")
	pageEvery := fs.Int("page-every", 0, "with -gallery: advance the visible page every N frames (0: default)")
	churn := fs.Bool("churn", true, "with -gallery: stagger one late join and one early leave to exercise grid resizes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *galleryMode {
		return runLiveGallery(galleryRun{
			phase: *phase, callIndex: *index, in: *in, software: *software,
			participants: *sessions, frames: *frames, unknownVB: *unknownVB,
			rate: *rate, every: *every, queue: *queue, seed: *seed, out: *out,
			connect: *connect, speakerEvery: *speakerEvery, pageSize: *pageSize,
			pageEvery: *pageEvery, churn: *churn,
		})
	}
	if *sessions < 1 {
		return fmt.Errorf("need at least one session")
	}
	chaosProfile, err := faultinject.ParseProfile(*chaosSpec)
	if err != nil {
		return fmt.Errorf("-chaos: %w", err)
	}
	chaosOn := *chaosSpec != ""

	// Acquire the call: a replayed recording (decoded under the default
	// byte budget, so a crafted header is rejected up front) or a
	// freshly composed synthetic one with true silhouettes.
	var video *vidstream.Video
	var oracles []*imagex.Mask
	source := ""
	if *in != "" {
		v, err := vidstream.Load(*in)
		if err != nil {
			return err
		}
		video = v
		w, h := v.Size()
		oracles = make([]*imagex.Mask, v.Len())
		for i := range oracles {
			oracles[i] = imagex.NewMask(w, h)
		}
		source = fmt.Sprintf("replay of %s", *in)
	} else {
		call, err := pickCall(*phase, *index)
		if err != nil {
			return err
		}
		if *frames > 0 && *frames < call.Frames {
			call.Frames = *frames
		}
		rendered, err := call.Render()
		if err != nil {
			return err
		}
		profile := bgbuster.ZoomProfile()
		if *software == "skype" {
			profile = bgbuster.SkypeProfile()
		} else if *software != "zoom" {
			return fmt.Errorf("unknown software %q", *software)
		}
		w, h := rendered.Raw.Size()
		composed, err := bgbuster.Compose(rendered.Raw, rendered.Silhouettes, profile,
			bgbuster.StaticImage{Img: bgbuster.BuiltinVirtualImage(*vbName, w, h)}, nil, *seed)
		if err != nil {
			return err
		}
		video = composed.Blended
		oracles = rendered.Silhouettes
		source = fmt.Sprintf("synthetic call %s (%s, vb=%s, software=%s)", call.ID, *phase, *vbName, *software)
	}
	if *frames > 0 && *frames < video.Len() {
		video = video.Slice(0, *frames)
		oracles = oracles[:*frames]
	}
	w, h := video.Size()

	fps := *rate
	if fps == 0 {
		fps = float64(video.FPS)
	}
	var frameGap time.Duration
	if fps > 0 {
		frameGap = time.Duration(float64(time.Second) / fps)
	}

	cfg := session.Config{
		QueueDepth:      *queue,
		IdleTimeout:     *idle,
		MaxImpulseNoise: *noiseGate,
		StallTimeout:    *stallTimeout,
		CloseTimeout:    *closeTimeout,
		AutoRestart:     *restart,
		MaxRestarts:     *maxRestarts,
		MaxSessions:     *maxSessions,
		MemBudget:       *memBudget,
		// Degradation events — checkpoint retry exhaustion, health
		// transitions, watchdog stalls, quarantined checkpoints — go to
		// stderr so the stats stream on stdout stays machine-readable.
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "bgbuster: live: "+format+"\n", args...)
		},
	}
	if *ckptDir != "" {
		store, err := session.NewDirStore(*ckptDir)
		if err != nil {
			// An unusable checkpoint dir is a startup misconfiguration:
			// surface it readably now instead of degrading every session.
			return fmt.Errorf("live: %w", err)
		}
		if orphans := store.Orphans(); len(orphans) > 0 {
			fmt.Fprintf(os.Stderr, "bgbuster: live: swept %d interrupted checkpoint temp file(s) from %s\n",
				len(orphans), *ckptDir)
		}
		if _, skipped, err := store.ListDetailed(); err == nil && len(skipped) > 0 {
			fmt.Fprintf(os.Stderr, "bgbuster: live: ignoring %d foreign file(s) in %s: %v\n",
				len(skipped), *ckptDir, skipped)
		}
		cfg.Checkpoints = store
		cfg.CheckpointInterval = *ckptEvery
	}
	mgr := session.NewManager(cfg)
	defer mgr.Close()

	// Resume whatever a previous run left in the checkpoint directory
	// before opening fresh sessions: a resumed call keeps its whole
	// accumulated reconstruction and is fed only the frames past its
	// stream counter. A corrupt or options-mismatched checkpoint skips
	// that id with a warning; the replay still runs.
	resumed := map[string]*session.Session{}
	if cfg.Checkpoints != nil {
		restored, err := mgr.Restore(func(id string) bgbuster.ReconstructOptions {
			return bgbuster.StreamAttackOptions(w, h, *unknownVB, liveCallSeed(*seed, id))
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bgbuster: live: some checkpoints not resumed: %v\n", err)
		}
		for _, s := range restored {
			resumed[s.ID()] = s
		}
		if len(restored) > 0 {
			fmt.Printf("resumed %d checkpointed session(s) from %s\n", len(restored), *ckptDir)
		}
	}

	// With chaos poison armed, each freshly opened session's segmenter is
	// wrapped so a poisoned frame panics the worker — the injected fault
	// the supervisor (-restart) exists to heal. Resumed sessions keep
	// their plain segmenter: their poison frames simply process.
	arms := make([]*poisonArm, *sessions)
	live := make([]*session.Session, *sessions)
	offsets := make([]int, *sessions)
	for i := range live {
		id := liveCallID(i)
		if s, ok := resumed[id]; ok {
			delete(resumed, id)
			live[i] = s
			offsets[i] = resumeOffset(s.Stats().StreamFrames, video.Len())
			continue
		}
		opts := bgbuster.StreamAttackOptions(w, h, *unknownVB, liveCallSeed(*seed, id))
		if chaosOn && chaosProfile.Poison > 0 {
			arms[i] = &poisonArm{inner: opts.Segmenter, set: map[*imagex.Image]struct{}{}}
			opts.Segmenter = arms[i]
		}
		s, err := mgr.Open(id, w, h, opts)
		if err != nil {
			return err
		}
		live[i] = s
	}
	// Resumed sessions outside this replay's fleet stay checkpointed on
	// disk but are closed here so the final stats cover only this run.
	for _, s := range resumed {
		_ = s.Close()
	}

	chaosNote := ""
	if chaosOn {
		chaosNote = fmt.Sprintf(" (chaos: %s)", *chaosSpec)
	}
	fmt.Printf("live: %s — %d frames %dx%d at %.3g fps across %d sessions%s\n",
		source, video.Len(), w, h, fps, *sessions, chaosNote)

	// Feed every session concurrently at the replay rate while a
	// reporter prints instantaneous aggregates; neither blocks the
	// reconstruction workers. With -chaos each feeder runs its frames
	// through its own seeded injector (seed offset by session index, so
	// the fleets' fault sequences decorrelate but any single run is
	// reproducible bit for bit) and honours injected stalls as real
	// delivery pauses.
	// Frames are routed through Manager.Feed (not session handles): after
	// a supervisor restart the old handle is a Failed tombstone, and the
	// manager always reaches the live incarnation. With the supervisor
	// armed, ErrFailed is a transient state between crash and
	// resurrection — retry the batch briefly so a mid-call crash costs
	// only what the queue lost, not the rest of the feed. A single frame
	// is a batch of one.
	feedN := mgr.FeedN
	if *restart {
		feedN = func(id string, frames []bgbuster.Frame) error {
			for tries := 0; ; tries++ {
				err := mgr.FeedN(id, frames)
				if err == nil || !errors.Is(err, session.ErrFailed) || tries >= 400 {
					return err
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	feed := func(id string, img *imagex.Image, oracle *imagex.Mask) error {
		return feedN(id, []bgbuster.Frame{{Img: img, Oracle: oracle}})
	}
	injectors := make([]*faultinject.Injector, len(live))
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for i, s := range live {
			wg.Add(1)
			go func(idx int, id string, start int) {
				defer wg.Done()
				if chaosOn {
					p := chaosProfile
					p.Seed += int64(idx)
					inj := faultinject.New(p)
					injectors[idx] = inj
					for j, f := range inj.Apply(video.Frames[start:], oracles[start:]) {
						if f.Delay > 0 {
							time.Sleep(f.Delay)
						}
						if frameGap > 0 && j > 0 {
							time.Sleep(frameGap)
						}
						if f.Poisoned && arms[idx] != nil {
							arms[idx].arm(f.Img)
						}
						if err := feed(id, f.Img, f.Oracle); err != nil {
							return // closed or evicted: final stats will say
						}
					}
				} else if frameGap <= 0 {
					// Unpaced replay (-rate < 0): batch ingest routes whole
					// chunks through Manager.FeedN — one queue slot per chunk
					// instead of per frame. Each chunk slice is handed to the
					// session (ownership transfers with the batch), so a fresh
					// one is built per send.
					const chunk = 16
					for i := start; i < video.Len(); i += chunk {
						j := i + chunk
						if j > video.Len() {
							j = video.Len()
						}
						frames := make([]bgbuster.Frame, 0, j-i)
						for k := i; k < j; k++ {
							frames = append(frames, bgbuster.Frame{Img: video.Frames[k], Oracle: oracles[k]})
						}
						if err := feedN(id, frames); err != nil {
							return // closed or evicted: final stats will say
						}
					}
				} else {
					for i := start; i < video.Len(); i++ {
						if frameGap > 0 && i > start {
							time.Sleep(frameGap)
						}
						if err := feed(id, video.Frames[i], oracles[i]); err != nil {
							return // closed or evicted: final stats will say
						}
					}
				}
				if cur, ok := mgr.Get(id); ok {
					_ = cur.Finalize()
				}
			}(i, s.ID(), offsets[i])
		}
		wg.Wait()
	}()

	agg := &aggregatePrinter{start: time.Now()}
	ticker := time.NewTicker(*every)
	defer ticker.Stop()
loop:
	for {
		select {
		case <-done:
			break loop
		case <-ticker.C:
			agg.print(mgr.Stats())
		}
	}

	// A crash in the call's last frames can leave a session Failed in
	// the gap before the supervisor resurrects it; give the healing loop
	// a bounded beat so the final snapshot reports the healed fleet.
	if *restart {
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
			if mgr.Stats().FailedNow == 0 {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	fmt.Println("final per-session stats:")
	fmt.Println("  id        frames  drop  rej  gate  coverage  vb          health    pin-latency  mean-feed")
	for _, s := range live {
		// Report the current incarnation: after an auto-restart the
		// original handle only knows the crashed lineage.
		if cur, ok := mgr.Get(s.ID()); ok {
			s = cur
		}
		st := s.Stats()
		vb := st.VBName
		if vb == "" {
			vb = fmt.Sprintf("derived:%.0f%%", st.DerivedCoverage*100)
		}
		// StreamFrames is cumulative across restarts; FramesProcessed is
		// this incarnation only, so resumed sessions report the former.
		fmt.Printf("  %-9s %6d %5d %4d %5d %8.2f%%  %-11s %-9s %11s %10s\n",
			st.ID, st.StreamFrames, st.FramesDropped, st.FramesRejected, st.FramesGated,
			st.CoveragePct, vb, st.Health, st.IdentifyLatency.Round(time.Millisecond),
			st.FeedLatency.Mean.Round(10*time.Microsecond))
		if st.Incarnation > 1 {
			fmt.Printf("            incarnation %d (resumed %d frames at %.2f%% coverage)\n",
				st.Incarnation, st.ResumedFrames, st.ResumedCoverage*100)
		}
		for _, reason := range st.HealthReasons {
			fmt.Printf("            %s\n", reason)
		}
	}
	ms := mgr.Stats()
	fmt.Printf("manager: opened=%d closed=%d evicted=%d panics=%d degraded=%d stalls=%d abandoned=%d\n",
		ms.Opened, ms.Closed, ms.Evicted, ms.Panics, ms.Degraded, ms.Stalls, ms.Abandoned)
	if *restart || *maxSessions > 0 || *memBudget > 0 {
		fmt.Printf("supervision: restarts=%d breaker-trips=%d shed=%d mem-used=%d\n",
			ms.Restarts, ms.BreakerTrips, ms.Shed, ms.MemUsed)
	}
	if cfg.Checkpoints != nil {
		var saved, failed, retries uint64
		for _, s := range live {
			st := s.Stats()
			saved += st.Checkpoints
			failed += st.CheckpointErrors
			retries += st.CheckpointSaveRetries
		}
		fmt.Printf("checkpoints: dir=%s saved=%d errors=%d retries=%d resumed=%d\n",
			*ckptDir, saved, failed, retries, ms.Restored)
	}
	if chaosOn {
		var total faultinject.Counters
		for _, inj := range injectors {
			if inj == nil {
				continue
			}
			c := inj.Counters()
			total.Input += c.Input
			total.Emitted += c.Emitted
			total.Dropped += c.Dropped
			total.Duplicated += c.Duplicated
			total.Reordered += c.Reordered
			total.Corrupted += c.Corrupted
			total.Misgeometry += c.Misgeometry
			total.Truncated += c.Truncated
			total.Stalled += c.Stalled
			total.Poisoned += c.Poisoned
		}
		fmt.Printf("chaos: %v (%d faults injected)\n", total, total.Faults())
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		for _, s := range live {
			snap := s.Snapshot()
			path := filepath.Join(*out, s.ID()+"-recovered.png")
			if err := snap.Recovered.WritePNG(path); err != nil {
				return fmt.Errorf("write %s: %w", path, err)
			}
		}
		fmt.Printf("recovered backgrounds written to %s/\n", *out)
	}
	return nil
}

// poisonArm turns chaos-injected poison frames into real worker
// panics so `-chaos 'poison=…'` exercises the supervisor's restart
// path end to end: the feeder registers each poisoned frame's image
// (the injector clones poison frames, so the pointer is unique) and
// the wrapped segmenter panics when the worker reaches it. Poison
// landing inside the pre-pin window is segmented from clones and
// passes harmlessly — like the real fault it models, the crash only
// fires on frames the reconstructor touches directly.
type poisonArm struct {
	inner segment.Segmenter
	mu    sync.Mutex
	set   map[*imagex.Image]struct{}
}

func (p *poisonArm) arm(img *imagex.Image) {
	p.mu.Lock()
	p.set[img] = struct{}{}
	p.mu.Unlock()
}

func (p *poisonArm) Segment(frame *imagex.Image, oracle *imagex.Mask) *imagex.Mask {
	p.mu.Lock()
	_, bad := p.set[frame]
	if bad {
		delete(p.set, frame)
	}
	p.mu.Unlock()
	if bad {
		panic("chaos: poisoned frame reached the reconstructor")
	}
	return p.inner.Segment(frame, oracle)
}

// aggregatePrinter prints instantaneous fleet-wide stats lines,
// carrying enough state between ticks to report the fleet's processing
// rate (frames/sec over the last interval) and memory density (the
// admission-accounted bytes per open session) alongside the counters.
type aggregatePrinter struct {
	start    time.Time
	lastTick time.Time
	lastProc uint64
}

func (p *aggregatePrinter) print(ms session.ManagerSnapshot) {
	var fed, dropped, rejected, processed uint64
	var covSum float64
	identified := 0
	for _, st := range ms.Sessions {
		fed += st.FramesFed
		dropped += st.FramesDropped
		rejected += st.FramesRejected
		processed += st.FramesProcessed
		covSum += st.CoveragePct
		if st.Identified {
			identified++
		}
	}
	meanCov := 0.0
	if len(ms.Sessions) > 0 {
		meanCov = covSum / float64(len(ms.Sessions))
	}
	now := time.Now()
	since := p.start
	if !p.lastTick.IsZero() {
		since = p.lastTick
	}
	rate := 0.0
	if dt := now.Sub(since).Seconds(); dt > 0 && processed >= p.lastProc {
		rate = float64(processed-p.lastProc) / dt
	}
	p.lastTick, p.lastProc = now, processed
	perSession := "n/a"
	if ms.Open > 0 {
		perSession = fmtBytes(ms.MemUsed / uint64(ms.Open))
	}
	fmt.Printf("%6.1fs  open=%d fed=%d drop=%d rej=%d proc=%d identified=%d mean-coverage=%.2f%% fps=%.0f mem/session=%s\n",
		now.Sub(p.start).Seconds(), ms.Open, fed, dropped, rejected, processed, identified, meanCov, rate, perSession)
}

// fmtBytes renders a byte count with a binary-unit suffix.
func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

func runList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	phase := fs.String("phase", "e1", "dataset phase: e1, e2 or e3")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := bgbuster.DefaultDatasetConfig()
	var calls []*dataset.Call
	switch *phase {
	case "e1":
		calls = bgbuster.E1Calls(cfg)
	case "e2":
		calls = bgbuster.E2Calls(cfg)
	case "e3":
		calls = bgbuster.E3Calls(cfg)
	default:
		return fmt.Errorf("unknown phase %q", *phase)
	}
	for i, c := range calls {
		action, speed := "-", "-"
		if c.Action != 0 {
			action, speed = c.Action.String(), c.Speed.String()
		}
		engagement := "-"
		switch c.Engagement {
		case person.EngagementPassive:
			engagement = "passive"
		case person.EngagementActive:
			engagement = "active"
		}
		fmt.Printf("%3d  %-8s p%-3d action=%-14s speed=%-7s engagement=%-8s lights=%-5v acc={hat:%v,hp:%v} frames=%d\n",
			i, c.ID, c.Participant, action, speed, engagement, c.LightsOn,
			c.Accessories.Hat, c.Accessories.Headphones, c.Frames)
	}
	return nil
}
