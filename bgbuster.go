// Package bgbuster is the public API of Background Buster, a Go
// reproduction of "Background Buster: Peeking through Virtual
// Backgrounds in Online Video Calls" (Sabra, Maiti, Jadliwala, DSN
// 2022).
//
// The library has four layers:
//
//   - Simulation substrate: synthetic scenes, an articulated caller, a
//     virtual-background compositor with a calibrated leakage model
//     standing in for Zoom/Skype (see DESIGN.md §2 for the substitution
//     argument).
//   - The paper's contribution: the real-background reconstruction
//     framework (Reconstruct) that recovers leaked background from a
//     recorded call.
//   - Inference attacks on the reconstruction: location inference,
//     specific-object tracking, generic object detection, and text
//     inference.
//   - Mitigations: dynamic virtual backgrounds, per-call random
//     backgrounds, frame dropping, and deepfake replay.
//
// This facade covers the pipeline, the attacks, the mitigations, live
// sessions, checkpoint resume, and the fleet's shard and dial side.
// Gallery-view ingestion and the fleet coordinator are driven through
// the bgbuster command (`bgbuster live -gallery`, `bgbuster serve`).
//
// Quickstart:
//
//	cfg := bgbuster.DefaultDatasetConfig()
//	call := bgbuster.E1Calls(cfg)[0]
//	rendered, _ := call.Render()
//	rec, _ := bgbuster.Attack(rendered, bgbuster.AttackOptions{})
//	fmt.Printf("recovered %.1f%% of the background\n", rec.RBRR())
package bgbuster

import (
	"fmt"
	"math/rand"

	"github.com/bgbuster/bgbuster/internal/attacks/location"
	"github.com/bgbuster/bgbuster/internal/attacks/objdetect"
	"github.com/bgbuster/bgbuster/internal/attacks/objtrack"
	"github.com/bgbuster/bgbuster/internal/attacks/textinfer"
	"github.com/bgbuster/bgbuster/internal/compositor"
	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/dataset"
	"github.com/bgbuster/bgbuster/internal/fleet"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/metrics"
	"github.com/bgbuster/bgbuster/internal/mitigate"
	"github.com/bgbuster/bgbuster/internal/segment"
	"github.com/bgbuster/bgbuster/internal/session"
	"github.com/bgbuster/bgbuster/internal/vidstream"
)

// Substrate types.
type (
	// Image is a 24-bit RGB frame.
	Image = imagex.Image
	// Mask is a binary bitmap over a frame.
	Mask = imagex.Mask
	// Video is a time-ordered frame sequence.
	Video = vidstream.Video
)

// Compositor types (the simulated video-calling software).
type (
	// CompositorProfile bundles a software's matting error model and
	// blending behaviour.
	CompositorProfile = compositor.Profile
	// CompositorResult is a composed call with ground-truth components.
	CompositorResult = compositor.Result
	// VirtualSource supplies virtual background content.
	VirtualSource = compositor.VirtualSource
	// StaticImage is a static virtual background.
	StaticImage = compositor.StaticImage
	// LoopingVideo is a looping virtual background video.
	LoopingVideo = compositor.LoopingVideo
	// VBTransform rewrites virtual background frames (mitigations).
	VBTransform = compositor.VBTransform
)

// Reconstruction types (the paper's contribution).
type (
	// Reconstruction is the recovered background plus coverage.
	Reconstruction = core.Reconstruction
	// ReconstructOptions configures the framework.
	ReconstructOptions = core.Options
	// VBMode selects how the virtual background is obtained.
	VBMode = core.VBMode
	// Verification scores a reconstruction against ground truth.
	Verification = metrics.Verification
)

// VB acquisition modes (paper Section V-B).
const (
	VBKnownImage   = core.VBKnownImage
	VBKnownVideo   = core.VBKnownVideo
	VBUnknownImage = core.VBUnknownImage
	VBUnknownVideo = core.VBUnknownVideo
)

// Dataset types.
type (
	// DatasetConfig scales the synthetic E1/E2/E3 collections.
	DatasetConfig = dataset.Config
	// Call is one recording descriptor.
	Call = dataset.Call
	// RenderedCall is a materialised recording with ground truth.
	RenderedCall = dataset.Rendered
)

// Attack types.
type (
	// LocationEntry pairs a location name with its known background.
	LocationEntry = location.Entry
	// LocationMatch is a ranked dictionary entry.
	LocationMatch = location.Match
	// TrackMatch is an object-tracking decision.
	TrackMatch = objtrack.Match
	// Detection is a generic-detector hit.
	Detection = objdetect.Detection
	// TextResult is a recognised text line.
	TextResult = textinfer.Result
)

// Detector model profiles (RetinaNet/YOLO substitutes).
const (
	ModelRetinaNetStyle = objdetect.ModelRetinaNetStyle
	ModelYOLOStyle      = objdetect.ModelYOLOStyle
)

// ZoomProfile returns the Zoom-like compositor profile.
func ZoomProfile() CompositorProfile { return compositor.ProfileZoom() }

// SkypeProfile returns the Skype-like compositor profile.
func SkypeProfile() CompositorProfile { return compositor.ProfileSkype() }

// BuiltinVirtualImage returns a named built-in virtual background; see
// BuiltinVirtualImageNames.
func BuiltinVirtualImage(name string, w, h int) *Image {
	return compositor.BuiltinImage(name, w, h)
}

// BuiltinVirtualImageNames lists the built-in virtual images.
func BuiltinVirtualImageNames() []string {
	out := make([]string, len(compositor.BuiltinImageNames))
	copy(out, compositor.BuiltinImageNames)
	return out
}

// BuiltinVirtualVideo returns a named built-in looping virtual video.
func BuiltinVirtualVideo(name string, w, h, period int) LoopingVideo {
	return compositor.BuiltinVideo(name, w, h, period)
}

// DefaultDatasetConfig returns the standard simulator scale.
func DefaultDatasetConfig() DatasetConfig { return dataset.DefaultConfig() }

// E1Calls, E2Calls and E3Calls build the three synthetic collections
// (163, 25 and 50 recordings — the paper's counts).
func E1Calls(cfg DatasetConfig) []*Call { return dataset.E1(cfg) }

// E2Calls builds the passive/active collection.
func E2Calls(cfg DatasetConfig) []*Call { return dataset.E2(cfg) }

// E3Calls builds the in-the-wild collection.
func E3Calls(cfg DatasetConfig) []*Call { return dataset.E3(cfg) }

// Compose applies the virtual background feature of the given profile to
// a raw capture, returning the blended recording plus ground-truth
// component masks. Seed drives the matting error model.
func Compose(raw *Video, silhouettes []*Mask, profile CompositorProfile, virtual VirtualSource, transform VBTransform, seed int64) (*CompositorResult, error) {
	return compositor.Compose(raw, silhouettes, compositor.Options{
		Profile:   profile,
		Virtual:   virtual,
		Transform: transform,
	}, rand.New(rand.NewSource(seed)))
}

// AttackOptions configures the one-call convenience pipeline.
type AttackOptions struct {
	// Profile is the compositor under attack (Zoom-like when zero).
	Profile *CompositorProfile
	// VirtualName picks the built-in virtual image ("beach" when empty).
	VirtualName string
	// Mode selects the VB acquisition path (VBKnownImage when zero).
	Mode VBMode
	// Mitigation, when non-nil, rewrites VB frames before blending.
	Mitigation VBTransform
	// Seed drives all randomness (compositor errors and the simulated
	// attacker-side segmenter).
	Seed int64
}

// AttackResult bundles the convenience pipeline's outputs.
type AttackResult struct {
	// Composed is the blended call (what the adversary records).
	Composed *CompositorResult
	// Reconstruction is the recovered background.
	Reconstruction *Reconstruction
	// Verification compares the claims against the true background.
	Verification Verification
}

// Attack runs the full pipeline on one rendered call: compose with a
// virtual background, reconstruct the real background, verify against
// ground truth. It is the one-stop entry point the examples use;
// lower-level control is available through Compose, core options and
// the attack sub-APIs.
func Attack(rendered *RenderedCall, opts AttackOptions) (*AttackResult, error) {
	profile := compositor.ProfileZoom()
	if opts.Profile != nil {
		profile = *opts.Profile
	}
	name := opts.VirtualName
	if name == "" {
		name = "beach"
	}
	mode := opts.Mode
	if mode == 0 {
		mode = VBKnownImage
	}
	w, h := rendered.Raw.Size()
	composed, err := Compose(rendered.Raw, rendered.Silhouettes, profile,
		StaticImage{Img: compositor.BuiltinImage(name, w, h)}, opts.Mitigation, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("bgbuster: compose: %w", err)
	}

	copts := core.DefaultOptions()
	copts.Mode = mode
	copts.KnownImages = compositor.BuiltinImages(w, h)
	copts.Segmenter = segment.NewOfflineSegmenter(rand.New(rand.NewSource(opts.Seed + 1)))
	rec, err := core.Reconstruct(composed.Blended, rendered.Silhouettes, copts)
	if err != nil {
		return nil, fmt.Errorf("bgbuster: reconstruct: %w", err)
	}
	ver, err := metrics.Verify(rec, rendered.TrueBackground, 30)
	if err != nil {
		return nil, fmt.Errorf("bgbuster: verify: %w", err)
	}
	return &AttackResult{Composed: composed, Reconstruction: rec, Verification: ver}, nil
}

// RankLocations runs the location-inference attack: scores every
// dictionary entry against the reconstruction and returns them ranked.
func RankLocations(rec *Reconstruction, dict []LocationEntry) ([]LocationMatch, error) {
	return location.Rank(rec, location.Dictionary(dict), location.DefaultOptions())
}

// TrackObject runs the specific-object-tracking attack with the paper's
// window constraints.
func TrackObject(rec *Reconstruction, template *Image) (TrackMatch, error) {
	return objtrack.Track(rec, template, objtrack.DefaultOptions())
}

// DetectObjects runs the generic object detector over a reconstruction.
func DetectObjects(rec *Reconstruction, model objdetect.Model) []Detection {
	return objdetect.Detect(rec, model)
}

// InferText runs the text-inference attack over a reconstruction.
func InferText(rec *Reconstruction) []TextResult {
	return textinfer.Infer(rec, textinfer.DefaultOptions())
}

// DynamicVirtualBackground returns the paper's Section IX-A mitigation
// as a VBTransform for Compose/Attack. The transform draws from its own
// seeded generator and serves one call at a time.
func DynamicVirtualBackground(seed int64) VBTransform {
	return mitigate.DynamicVB(mitigate.DefaultDynamicVBConfig(), rand.New(rand.NewSource(seed)))
}

// RandomVirtualBackground generates a never-seen-before virtual image
// (the per-call random background heuristic).
func RandomVirtualBackground(w, h int, seed int64) *Image {
	return mitigate.RandomVB(w, h, rand.New(rand.NewSource(seed)))
}

// DropFrames keeps only every keepEvery-th frame of a call (the reduced
// frame-sharing heuristic).
func DropFrames(v *Video, keepEvery int) *Video { return mitigate.FrameDrop(v, keepEvery) }

// DeepfakeReplay substitutes all frames after the first with animated
// variants of the first frame (the First Order Motion heuristic).
func DeepfakeReplay(v *Video, seed int64) (*Video, error) {
	return mitigate.DeepfakeReplay(v, rand.New(rand.NewSource(seed)))
}

// StreamReconstructor is the incremental (live-adversary) variant of
// the framework: feed frames as they arrive, snapshot at any time, and
// Finalize at end-of-call so short calls (fewer frames than the
// identification window) still pin their virtual background.
type StreamReconstructor = core.StreamReconstructor

// Frame pairs a frame with its oracle silhouette for batch ingest via
// SessionManager.FeedN.
type Frame = core.Frame

// Live-call session layer: a SessionManager multiplexes many
// concurrent StreamReconstructors behind bounded drop-oldest frame
// queues, with idle eviction, per-session panic isolation and
// always-readable stats (see internal/session).
type (
	// SessionManager multiplexes concurrent live reconstructions.
	SessionManager = session.Manager
	// SessionConfig tunes queue depth, idle eviction and telemetry.
	SessionConfig = session.Config
	// LiveSession is one live call being reconstructed.
	LiveSession = session.Session
)

// NewSessionManager returns a running live-call session manager.
func NewSessionManager(cfg SessionConfig) *SessionManager { return session.NewManager(cfg) }

// Checkpoint/resume (DESIGN.md §11): a StreamReconstructor serialises
// its complete state to a versioned, CRC-guarded .bbck container;
// resuming it continues the reconstruction bit-identically to a stream
// that was never interrupted.
type (
	// CheckpointStore persists per-session stream checkpoints; plug one
	// into SessionConfig.Checkpoints for periodic durability plus
	// SessionManager.Restore after a restart.
	CheckpointStore = session.CheckpointStore
	// DirCheckpointStore is the filesystem CheckpointStore: one .bbck
	// file per session id, written atomically.
	DirCheckpointStore = session.DirStore
)

// ErrCheckpointMismatch is returned by ResumeStream when a checkpoint
// is valid but belongs to different reconstruction options (geometry,
// mode, thresholds or dictionary).
var ErrCheckpointMismatch = core.ErrCheckpointMismatch

// Fleet distribution layer (DESIGN.md §15): a coordinator
// consistent-hashes live sessions over worker shards speaking a
// length-prefixed, budget-checked wire protocol, with checkpoint
// replication, live migration and shard-loss recovery built on the
// bit-identical .bbck resume guarantee. The facade serves a shard and
// dials a shard or coordinator; `bgbuster shard` and `bgbuster serve`
// are the CLI front ends.
type (
	// FleetOpenSpec describes a session to open or resume fleet-wide.
	FleetOpenSpec = fleet.OpenSpec
	// FleetShard serves one SessionManager over the wire protocol.
	FleetShard = fleet.Shard
	// FleetShardConfig wires a manager and an options hook into a shard.
	FleetShardConfig = fleet.ShardConfig
	// FleetClient is a synchronous wire-protocol client.
	FleetClient = fleet.Client
	// FleetLimits bounds what a wire decoder will allocate per message.
	FleetLimits = fleet.Limits
)

// NewFleetShard returns a worker shard serving cfg.Manager.
func NewFleetShard(cfg FleetShardConfig) (*FleetShard, error) { return fleet.NewShard(cfg) }

// DialFleet connects to a shard or coordinator wire endpoint.
func DialFleet(addr string, lim FleetLimits) (*FleetClient, error) { return fleet.Dial(addr, lim) }

// NewDirCheckpointStore opens (creating it if needed) a
// directory-backed checkpoint store.
func NewDirCheckpointStore(dir string) (*DirCheckpointStore, error) {
	return session.NewDirStore(dir)
}

// ResumeStream reconstructs a live StreamReconstructor from a
// checkpoint taken with StreamReconstructor.Checkpoint. opts must
// match the options the checkpoint was written under (an embedded
// fingerprint is verified); malformed or oversized containers are
// rejected with an error, never a panic or a large allocation.
func ResumeStream(data []byte, opts ReconstructOptions) (*StreamReconstructor, error) {
	return core.ResumeStream(data, opts)
}

// StreamAttackOptions returns the reconstruction options the streaming
// attacker uses — the built-in virtual-image dictionary (VBKnownImage)
// or, when unknownVB is true, online unknown-image derivation — for
// NewStreamAttack or SessionManager.Open. Seed drives the attacker-side
// segmenter. The dictionary's images are rendered once per geometry and
// shared by every caller in the process: the returned map is the
// caller's own, but its images must not be mutated.
func StreamAttackOptions(w, h int, unknownVB bool, seed int64) ReconstructOptions {
	opts := core.DefaultOptions()
	if unknownVB {
		opts.Mode = core.VBUnknownImage
	} else {
		opts.KnownImages = compositor.BuiltinImages(w, h)
	}
	opts.Segmenter = segment.NewOfflineSegmenter(rand.New(rand.NewSource(seed)))
	return opts
}

// NewStreamAttack creates a streaming reconstructor preloaded with the
// built-in virtual-image dictionary (VBKnownImage) or, when unknownVB is
// true, configured for online unknown-image derivation. Seed drives the
// attacker-side segmenter. For multiplexing many live calls, open
// sessions on a SessionManager with StreamAttackOptions instead.
func NewStreamAttack(w, h int, unknownVB bool, seed int64) (*StreamReconstructor, error) {
	return core.NewStream(w, h, StreamAttackOptions(w, h, unknownVB, seed))
}
