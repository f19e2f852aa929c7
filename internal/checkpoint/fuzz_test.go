package checkpoint

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzCheckpointDecode throws arbitrary bytes at the hardened decoder.
// Invariants: never panic, reject with an error rather than allocating
// past the byte budget (enforced structurally by need()-before-alloc,
// and exercised here with a tight Limits), and every accepted container
// re-encodes to the identical bytes (the format is canonical).
func FuzzCheckpointDecode(f *testing.F) {
	// Seed 1: a fully populated valid known-image container.
	known := mustEncodeF(f, knownState(8, 6))
	f.Add(known)
	// Seed 2: a valid unknown-image container with derivation state,
	// every mask partly set.
	unknown := mustEncodeF(f, unknownState(9, 5))
	f.Add(unknown)
	// Seed 3-5: truncations at section boundaries.
	f.Add(known[:12])           // header only
	f.Add(known[:20])           // cut inside geometry
	f.Add(known[:len(known)/2]) // cut mid-payload
	// Seed 6: bad CRC.
	bad := append([]byte(nil), known...)
	bad[8] ^= 0xff
	f.Add(bad)
	// Seed 7: version skew.
	skew := append([]byte(nil), known...)
	binary.LittleEndian.PutUint16(skew[4:], Version+7)
	f.Add(skew)
	// Seed 8: oversized dims with a fixed-up CRC, so the fuzzer starts
	// past the CRC gate at the geometry check.
	big := append([]byte(nil), known...)
	binary.LittleEndian.PutUint32(big[12:], 0xffffffff)
	patchCRC(big)
	f.Add(big)
	// Seed 9: huge pending count behind a valid CRC.
	st := &State{W: 4, H: 4, Mode: 0,
		Recovered: knownState(4, 4).Recovered, Coverage: knownState(4, 4).Coverage}
	huge := mustEncodeF(f, st)
	binary.LittleEndian.PutUint32(huge[12+4+4+8+1+1+8+4:], 1<<31)
	patchCRC(huge)
	f.Add(huge)
	// Seed 10: nonzero mask padding bits behind a valid CRC.
	pad := mustEncodeF(f, st)
	pad[len(pad)-7] = 0xff
	patchCRC(pad)
	f.Add(pad)
	// Seed 11: an unknown-image container whose masks mix full, empty
	// and partly set rows, with a histogram, so the masked sections,
	// the run counters and the histogram entries all hold data.
	f.Add(mustEncodeF(f, wordsState(60, 6)))

	lim := Limits{MaxDim: 64, MaxPending: 16, MaxScores: 32, MaxNameLen: 64}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeWithLimits(data, lim)
		if err != nil {
			return
		}
		// Accepted containers are canonical: encode must succeed and
		// reproduce the input byte for byte.
		out, err := Encode(st)
		if err != nil {
			t.Fatalf("decoded state does not re-encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("encode(decode(x)) diverged: %d in, %d out", len(data), len(out))
		}
	})
}

func mustEncodeF(f *testing.F, st *State) []byte {
	f.Helper()
	data, err := Encode(st)
	if err != nil {
		f.Fatalf("Encode: %v", err)
	}
	return data
}
