package bgbuster

import (
	"reflect"
	"slices"
	"testing"

	"github.com/bgbuster/bgbuster/internal/fleet"
	"github.com/bgbuster/bgbuster/internal/fleet/autopilot"
	"github.com/bgbuster/bgbuster/internal/gallery"
	"github.com/bgbuster/bgbuster/internal/session"
)

// configFields is the settable surface of the session, fleet, autopilot
// and gallery layers: the exported fields of each configuration struct,
// in declaration order. Tuning values that no caller needs to turn are
// unexported constants instead, so a field added here must change this
// list in the same commit and show up as a reviewed diff.
var configFields = map[string]struct {
	typ    reflect.Type
	fields []string
}{
	"session.Config": {reflect.TypeFor[session.Config](), []string{
		"QueueDepth", "MaxSessions", "MemBudget", "IdleTimeout",
		"Checkpoints", "CheckpointInterval", "AutoRestart", "MaxRestarts",
		"MaxImpulseNoise", "StallTimeout", "CloseTimeout", "Logf",
	}},
	"fleet.CoordinatorConfig": {reflect.TypeFor[fleet.CoordinatorConfig](), []string{
		"Shards", "Vnodes", "Limits", "Store", "Stores", "ReplicaFactor",
		"WriteQuorum", "Health", "Weights", "LoadTimeout", "Epoch", "Dial", "Logf",
	}},
	"fleet.HealthConfig": {reflect.TypeFor[fleet.HealthConfig](), []string{
		"ProbeInterval", "Seed",
	}},
	"autopilot.Config": {reflect.TypeFor[autopilot.Config](), []string{
		"Coordinator", "HighWater", "PlanEvery", "ReadmitAfter", "Quarantine",
		"ScrubEvery", "Limits", "Clock", "Seed", "Elector", "Logf",
	}},
	"autopilot.ElectorConfig": {reflect.TypeFor[autopilot.ElectorConfig](), []string{
		"Store", "ID", "TTL", "Settle", "Clock", "OnElected", "OnDeposed", "Logf",
	}},
	"gallery.Config": {reflect.TypeFor[gallery.Config](), []string{
		"Limits", "Rejoin",
	}},
}

// TestConfigSurface pins each configuration struct's exported fields to
// configFields and reports the fields added and removed on mismatch.
func TestConfigSurface(t *testing.T) {
	for name, want := range configFields {
		var got []string
		for i := 0; i < want.typ.NumField(); i++ {
			if f := want.typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if slices.Equal(got, want.fields) {
			continue
		}
		var added, removed []string
		for _, f := range got {
			if !slices.Contains(want.fields, f) {
				added = append(added, f)
			}
		}
		for _, f := range want.fields {
			if !slices.Contains(got, f) {
				removed = append(removed, f)
			}
		}
		t.Errorf("%s fields differ from configFields (update the list and record the change in CHANGES.md):\n  added:   %v\n  removed: %v\n  got:     %v",
			name, added, removed, got)
	}
}
