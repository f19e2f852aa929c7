package main

import "testing"

// TestVerifierCatchesFlippedByte runs every workload briefly twice: as
// is, where every output must match its reference, and with one output
// byte flipped, where the run must report a mismatch.
func TestVerifierCatchesFlippedByte(t *testing.T) {
	for name, drive := range workloads {
		for _, flip := range []bool{false, true} {
			out, err := drive(runConfig{seed: 1, seconds: 1, flip: flip})
			if err != nil {
				t.Fatalf("%s flip=%v: %v", name, flip, err)
			}
			if out.correct == flip {
				t.Errorf("%s flip=%v: correct=%v", name, flip, out.correct)
			}
			if flip && out.failed == 0 {
				t.Errorf("%s: a mismatched output counted no failed frames", name)
			}
		}
	}
}
