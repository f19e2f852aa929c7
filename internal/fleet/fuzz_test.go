package fleet

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzLimits keeps per-iteration allocation small so the fuzzer can
// explore structure instead of filling RAM.
var fuzzLimits = Limits{
	MaxBody:  1 << 16,
	MaxDim:   64,
	MaxBatch: 8,
	MaxIDLen: 32,
	MaxCkpt:  1 << 12,
	MaxIDs:   64,
	MaxText:  128,
}

// FuzzWireDecode feeds crafted bytes to the wire decoder and enforces
// the two safety properties the protocol promises:
//
//  1. Never panic, never allocate beyond the DecodeLimits budgets —
//     any structural lie (oversized body, geometry bomb, bad mask
//     padding) is a clean error.
//  2. Canonical encoding: any accepted message re-encodes to the exact
//     input bytes, so there are no two wire spellings of one message.
func FuzzWireDecode(f *testing.F) {
	// Valid messages of every type.
	for _, m := range sampleMessages() {
		buf, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	// Crafted adversarial seeds: header lies the decoder must reject.
	hdr := func(typ byte, bodyLen uint32, body []byte) []byte {
		b := []byte{'B', 'B', 'F', 'L', 1, 0, typ, 0}
		b = binary.LittleEndian.AppendUint32(b, bodyLen)
		return append(b, body...)
	}
	f.Add(hdr(0x02, 0xFFFFFFFF, nil))                                           // body-length bomb
	f.Add(hdr(0x02, 14, []byte{1, 0, 'z', 1, 0, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2})) // geometry bomb
	f.Add(hdr(0x02, 7, []byte{1, 0, 'z', 0xFF, 0xFF, 0, 0}))                    // batch-count bomb
	f.Add(hdr(0x41, 4, []byte{1, 0, 0xFF, 0xFF}))                               // string-length bomb
	f.Add(hdr(0x06, 9, []byte{1, 0, 'a', 1, 0, 1, 0, 0, 5}))                    // truncated resume
	f.Add([]byte("BBFL"))                                                       // bare magic
	f.Add(hdr(0x40, 1, []byte{0}))                                              // trailing byte on empty body
	f.Add(hdr(0x0C, 4, []byte{1, 2, 3, 4}))                                     // truncated fence epoch
	f.Add(hdr(0x0D, 3, []byte{0xFF, 0xFF, 'a'}))                                // join addr-length bomb
	f.Add(hdr(0x0E, 2, []byte{0, 0}))                                           // empty drain-shard addr
	f.Add(hdr(0x0B, 1, []byte{0}))                                              // trailing byte on ping
	f.Add(hdr(0x11, 4, []byte{1, 0, 'a', 3}))                                   // truncated set-weight
	f.Add(hdr(0x48, 12, make([]byte, 12)))                                      // truncated status
	f.Add(hdr(0x48, 17, append(make([]byte, 16), 0x07)))                        // autopilot bad flags + truncation
	f.Add(craftStatus(Status{}, setLastU16(0xFFFF)))                            // status row-count bomb
	oneRow := Status{Shards: []ShardStatus{{Addr: "xyz", Weight: 1}}}
	f.Add(craftStatus(oneRow, setLastU16(0xFFFF)))    // status session-count bomb
	f.Add(craftStatus(oneRow, func(b []byte) []byte { // truncated row
		b = b[:len(b)-2] // cut the session count
		binary.LittleEndian.PutUint32(b[8:12], uint32(len(b)-headerLen))
		return b
	}))
	f.Add(craftStatus(oneRow, func(b []byte) []byte { b[len(b)-47] = 9; return b })) // role out of range
	// The retired status-style and batch-feed codes, each with an empty
	// body.
	for _, typ := range []byte{0x03, 0x09, 0x0F, 0x10, 0x12, 0x44, 0x45, 0x46, 0x47} {
		f.Add(hdr(typ, 0, nil))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeWithLimits(data, fuzzLimits)
		if err != nil {
			return
		}
		re, err := Encode(m)
		if err != nil {
			t.Fatalf("accepted message failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("non-canonical accept:\n in (%d bytes): %x\nout (%d bytes): %x",
				len(data), data, len(re), re)
		}
		// An accepted message must also decode identically under the
		// default (larger) budgets — budgets only ever reject, never
		// reinterpret.
		if _, err := Decode(data); err != nil {
			t.Fatalf("accepted under fuzz limits but rejected under defaults: %v", err)
		}
	})
}

// TestWireCorpusRoundTrip runs the fuzz property over the full sample
// corpus deterministically — the golden round-trip gate that runs on
// every plain `go test`, no fuzz engine needed.
func TestWireCorpusRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		buf, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeWithLimits(buf, Limits{})
		if err != nil {
			t.Fatalf("type 0x%02x: %v", byte(m.Type), err)
		}
		re, err := Encode(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, re) {
			t.Fatalf("type 0x%02x: corpus entry not canonical", byte(m.Type))
		}
	}
}
