package bgbuster

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"testing"
)

// facadeNames is the public API of package bgbuster: every exported
// top-level name declared in bgbuster.go, sorted. A change to the
// facade must change this list in the same commit, so every addition
// or removal shows up as a reviewed diff.
var facadeNames = []string{
	"Attack",
	"AttackOptions",
	"AttackResult",
	"BuiltinVirtualImage",
	"BuiltinVirtualImageNames",
	"BuiltinVirtualVideo",
	"Call",
	"CheckpointStore",
	"Compose",
	"CompositorProfile",
	"CompositorResult",
	"DatasetConfig",
	"DeepfakeReplay",
	"DefaultDatasetConfig",
	"DetectObjects",
	"Detection",
	"DialFleet",
	"DirCheckpointStore",
	"DropFrames",
	"DynamicVirtualBackground",
	"E1Calls",
	"E2Calls",
	"E3Calls",
	"ErrCheckpointMismatch",
	"FleetClient",
	"FleetLimits",
	"FleetOpenSpec",
	"FleetShard",
	"FleetShardConfig",
	"Frame",
	"Image",
	"InferText",
	"LiveSession",
	"LocationEntry",
	"LocationMatch",
	"LoopingVideo",
	"Mask",
	"ModelRetinaNetStyle",
	"ModelYOLOStyle",
	"NewDirCheckpointStore",
	"NewFleetShard",
	"NewSessionManager",
	"NewStreamAttack",
	"RandomVirtualBackground",
	"RankLocations",
	"ReconstructOptions",
	"Reconstruction",
	"RenderedCall",
	"ResumeStream",
	"SessionConfig",
	"SessionManager",
	"SkypeProfile",
	"StaticImage",
	"StreamAttackOptions",
	"StreamReconstructor",
	"TextResult",
	"TrackMatch",
	"TrackObject",
	"VBKnownImage",
	"VBKnownVideo",
	"VBMode",
	"VBTransform",
	"VBUnknownImage",
	"VBUnknownVideo",
	"Verification",
	"Video",
	"VirtualSource",
	"ZoomProfile",
}

// TestFacadeSurface pins the exported top-level names of bgbuster.go
// to facadeNames and reports the names added and removed on mismatch.
func TestFacadeSurface(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "bgbuster.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				got = append(got, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if spec.Name.IsExported() {
						got = append(got, spec.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						if n.IsExported() {
							got = append(got, n.Name)
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	if slices.Equal(got, facadeNames) {
		return
	}
	var added, removed []string
	for _, n := range got {
		if _, ok := slices.BinarySearch(facadeNames, n); !ok {
			added = append(added, n)
		}
	}
	for _, n := range facadeNames {
		if _, ok := slices.BinarySearch(got, n); !ok {
			removed = append(removed, n)
		}
	}
	t.Fatalf("bgbuster.go's exported names differ from facadeNames (update the list and record the change in CHANGES.md):\n  added:   %v\n  removed: %v", added, removed)
}
