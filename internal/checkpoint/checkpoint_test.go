package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"github.com/bgbuster/bgbuster/internal/imagex"
)

// testImage returns a deterministic w×h raster keyed by seed.
func testImage(w, h int, seed byte) *imagex.Image {
	img := imagex.New(w, h)
	for i := range img.Pix {
		img.Pix[i] = imagex.RGB{
			R: byte(i) + seed,
			G: byte(i>>3) ^ seed,
			B: byte(i>>6) + 3*seed,
		}
	}
	return img
}

// testMask returns a deterministic w×h mask keyed by seed.
func testMask(w, h int, seed int) *imagex.Mask {
	m := imagex.NewMask(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if (x*7+y*13+seed)%3 == 0 {
				m.Set(x, y, true)
			}
		}
	}
	return m
}

// knownState builds a representative known-image state: a score table,
// a pinned VB name and a non-empty pending buffer (the buffer would be
// empty after identification in a real stream, but the format does not
// care — core.validateResumeState does).
func knownState(w, h int) *State {
	hist := make([]int, histBins)
	hist[0], hist[17], hist[histBins-1] = 4, 9, 1
	return &State{
		W: w, H: h, Mode: 0, Frames: 42, Fingerprint: 0xdeadbeefcafe,
		Identified: true, VBName: "beach",
		Scores:         []Score{{Name: "beach", Score: 900}, {Name: "office", Score: 120}},
		PendingFrames:  []*imagex.Image{testImage(w, h, 1), testImage(w, h, 2)},
		PendingOracles: []*imagex.Mask{testMask(w, h, 1), testMask(w, h, 2)},
		Hist:           hist, HistTotal: 14,
		Recovered: testImage(w, h, 9), Coverage: testMask(w, h, 9),
	}
}

// pendingState builds a known-image state still inside the
// identification window: scores and buffered frames, no pinned VB.
func pendingState(w, h int) *State {
	st := knownState(w, h)
	st.Identified, st.VBName = false, ""
	return st
}

// unknownState builds a representative unknown-image state.
func unknownState(w, h int) *State {
	runLen := make([]int, w*h)
	for i := range runLen {
		runLen[i] = 1 + i%7
	}
	return &State{
		W: w, H: h, Mode: 1, Frames: 7, Fingerprint: 1,
		DerivedImg: testImage(w, h, 3), DerivedKnown: testMask(w, h, 3),
		LocalKnown: testMask(w, h, 4), RunLen: runLen, Prev: testImage(w, h, 6),
		Recovered: testImage(w, h, 8), Coverage: testMask(w, h, 8),
	}
}

func mustEncode(t *testing.T, st *State) []byte {
	t.Helper()
	data, err := Encode(st)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return data
}

func imagesEqual(a, b *imagex.Image) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.W != b.W || a.H != b.H || len(a.Pix) != len(b.Pix) {
		return false
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			return false
		}
	}
	return true
}

func masksEqual(a, b *imagex.Mask) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a.W == b.W && a.H == b.H && bytes.Equal(a.AppendWords(nil), b.AppendWords(nil))
}

func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   *State
	}{
		{"known", knownState(13, 9)},     // 13 exercises mask row padding
		{"pending", pendingState(13, 9)}, // pre-identification buffer only
		{"unknown", unknownState(64, 4)}, // word-aligned width
		{"unknown-noprev", func() *State { s := unknownState(5, 5); s.Prev = nil; return s }()},
		{"finalized-min", &State{W: 1, H: 1, Mode: 0, Finalized: true,
			Recovered: imagex.New(1, 1), Coverage: imagex.NewMask(1, 1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := mustEncode(t, tc.st)
			// encodedSizeHint is exact, so the buffer never regrows.
			if cap(data) != len(data) {
				t.Errorf("encode buffer cap %d for %d bytes: size hint is not exact", cap(data), len(data))
			}
			got, err := Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if got.W != tc.st.W || got.H != tc.st.H || got.Mode != tc.st.Mode ||
				got.Frames != tc.st.Frames || got.Fingerprint != tc.st.Fingerprint ||
				got.Finalized != tc.st.Finalized || got.Identified != tc.st.Identified ||
				got.VBName != tc.st.VBName || got.HistTotal != tc.st.HistTotal {
				t.Fatalf("scalar fields diverged:\n got %+v\nwant %+v", got, tc.st)
			}
			if len(got.Scores) != len(tc.st.Scores) {
				t.Fatalf("got %d scores, want %d", len(got.Scores), len(tc.st.Scores))
			}
			for i, sc := range got.Scores {
				if sc != tc.st.Scores[i] {
					t.Errorf("score[%d] = %+v, want %+v", i, sc, tc.st.Scores[i])
				}
			}
			if len(got.PendingFrames) != len(tc.st.PendingFrames) {
				t.Fatalf("got %d pending frames, want %d", len(got.PendingFrames), len(tc.st.PendingFrames))
			}
			for i := range got.PendingFrames {
				if !imagesEqual(got.PendingFrames[i], tc.st.PendingFrames[i]) ||
					!masksEqual(got.PendingOracles[i], tc.st.PendingOracles[i]) {
					t.Errorf("pending[%d] diverged", i)
				}
			}
			if !imagesEqual(got.DerivedImg, tc.st.DerivedImg) || !masksEqual(got.DerivedKnown, tc.st.DerivedKnown) ||
				!masksEqual(got.LocalKnown, tc.st.LocalKnown) || !imagesEqual(got.Prev, tc.st.Prev) {
				t.Error("derivation state diverged")
			}
			if len(got.RunLen) != len(tc.st.RunLen) {
				t.Fatalf("got %d run lengths, want %d", len(got.RunLen), len(tc.st.RunLen))
			}
			for i := range got.RunLen {
				if got.RunLen[i] != tc.st.RunLen[i] {
					t.Fatalf("runLen[%d] = %d, want %d", i, got.RunLen[i], tc.st.RunLen[i])
				}
			}
			if tc.st.Hist != nil {
				for i := range tc.st.Hist {
					if got.Hist[i] != tc.st.Hist[i] {
						t.Fatalf("hist[%d] = %d, want %d", i, got.Hist[i], tc.st.Hist[i])
					}
				}
			} else if got.Hist != nil {
				t.Error("decoded a histogram that was never encoded")
			}
			if !imagesEqual(got.Recovered, tc.st.Recovered) || !masksEqual(got.Coverage, tc.st.Coverage) {
				t.Error("accumulated residue diverged")
			}

			// Canonical encoding: re-encoding the decoded state must
			// reproduce the container byte for byte.
			again := mustEncode(t, got)
			if !bytes.Equal(data, again) {
				t.Errorf("encode(decode(x)) != x: %d vs %d bytes", len(again), len(data))
			}
		})
	}
}

func TestEncodeCanonicalScoreOrder(t *testing.T) {
	st := knownState(4, 4)
	st.Scores = []Score{{Name: "office", Score: 120}, {Name: "beach", Score: 900}}
	a := mustEncode(t, st)
	st.Scores = []Score{{Name: "beach", Score: 900}, {Name: "office", Score: 120}}
	b := mustEncode(t, st)
	if !bytes.Equal(a, b) {
		t.Error("score-table input order leaked into the encoding")
	}
}

func TestEncodeRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(st *State)
	}{
		{"zero-width", func(st *State) { st.W = 0 }},
		{"nil-recovered", func(st *State) { st.Recovered = nil }},
		{"pending-mismatch", func(st *State) { st.PendingOracles = st.PendingOracles[:1] }},
		{"mode-out-of-range", func(st *State) { st.Mode = 256 }},
		{"long-name", func(st *State) { st.VBName = strings.Repeat("x", 1<<16+1) }},
		{"bad-hist-len", func(st *State) { st.Hist = make([]int, 7) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := knownState(4, 4)
			tc.mutate(st)
			if _, err := Encode(st); err == nil {
				t.Error("Encode accepted an unrepresentable state")
			}
		})
	}
	t.Run("bad-runlen", func(t *testing.T) {
		st := unknownState(4, 4)
		st.RunLen[3] = -1
		if _, err := Encode(st); err == nil {
			t.Error("Encode accepted a negative run length")
		}
	})
}

// TestIdentifiedKnownEncodedLength pins the layout of a pinned known-image
// state (no pending buffer, as after identification): the VB travels as
// its name only, so the container is the header, the score table, the
// name, the empty pending and derivation sections, the histogram and the
// residue — with no raster for the pinned VB.
func TestIdentifiedKnownEncodedLength(t *testing.T) {
	for _, g := range []struct{ w, h int }{{13, 9}, {320, 240}} {
		st := knownState(g.w, g.h)
		st.PendingFrames, st.PendingOracles = nil, nil
		px, mw := 3*g.w*g.h, imagex.MaskWordBytes(g.w, g.h)
		want := 12 + // magic, version, reserved, CRC
			26 + // geometry, frames, mode, flags, fingerprint
			4 + (2 + len("beach") + 8) + (2 + len("office") + 8) + // score table
			2 + len("beach") + // pinned VB name
			4 + // pending count (0)
			1 + // derivation presence byte (absent)
			8*histBins + 8 + // histogram and its total
			px + mw // accumulated residue
		if got := len(mustEncode(t, st)); got != want {
			t.Errorf("%dx%d: identified known state encodes to %d bytes, layout gives %d", g.w, g.h, got, want)
		}
	}
}

// patchCRC recomputes the payload CRC after a deliberate mutation, so
// the test reaches the parser instead of the CRC gate.
func patchCRC(data []byte) {
	binary.LittleEndian.PutUint32(data[8:], crc32.ChecksumIEEE(data[12:]))
}

// TestDecodeRejectsVersion1 checks that a container from the previous
// format version, which embedded the pinned VB raster, is refused as
// version skew rather than parsed: the version field is patched to 1 on
// an otherwise valid container, with its CRC recomputed.
func TestDecodeRejectsVersion1(t *testing.T) {
	data := mustEncode(t, knownState(8, 6))
	binary.LittleEndian.PutUint16(data[4:], 1)
	patchCRC(data)
	if _, err := Decode(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("version-1 container: %v does not wrap ErrVersion", err)
	}
}

func TestDecodeRejects(t *testing.T) {
	valid := mustEncode(t, knownState(8, 6))

	t.Run("truncated", func(t *testing.T) {
		for n := 0; n < len(valid); n += 7 {
			if _, err := Decode(valid[:n]); err == nil {
				t.Fatalf("accepted %d-byte truncation", n)
			} else if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("truncation at %d: error %v does not wrap ErrBadCheckpoint", n, err)
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		data := append([]byte(nil), valid...)
		data[0] = 'X'
		if _, err := Decode(data); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("bad magic: %v", err)
		}
	})
	t.Run("version-skew", func(t *testing.T) {
		data := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint16(data[4:], Version+1)
		_, err := Decode(data)
		if !errors.Is(err, ErrVersion) {
			t.Errorf("version skew: %v does not wrap ErrVersion", err)
		}
		if !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("version skew: %v does not wrap ErrBadCheckpoint", err)
		}
	})
	t.Run("nonzero-reserved", func(t *testing.T) {
		// FuzzCheckpointDecode found a container with reserved = "00"
		// (0x3030) that decoded and re-encoded with zero there.
		for _, r := range []uint16{1, 0x3030, 0x8000} {
			data := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint16(data[6:], r)
			if _, err := Decode(data); !errors.Is(err, ErrBadCheckpoint) {
				t.Errorf("reserved %04x: %v", r, err)
			}
		}
	})
	t.Run("crc-mismatch", func(t *testing.T) {
		data := append([]byte(nil), valid...)
		data[len(data)-1] ^= 0x40
		if _, err := Decode(data); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("flipped payload bit: %v", err)
		}
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		data := append(append([]byte(nil), valid...), 0)
		patchCRC(data)
		if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Errorf("trailing byte: %v", err)
		}
	})
	t.Run("oversized-dims", func(t *testing.T) {
		data := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(data[12:], 1<<20) // width beyond MaxDim
		patchCRC(data)
		if _, err := Decode(data); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("oversized width: %v", err)
		}
	})
	t.Run("unknown-flags", func(t *testing.T) {
		data := append([]byte(nil), valid...)
		data[12+4+4+8+1] |= 0x80
		patchCRC(data)
		if _, err := Decode(data); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("unknown flag bit: %v", err)
		}
	})
	t.Run("unsorted-scores", func(t *testing.T) {
		// Swap the two score entries in place: same lengths, so offsets
		// of later sections are unchanged.
		st := knownState(4, 4)
		st.Scores = []Score{{Name: "aaaaa", Score: 1}, {Name: "bbbbb", Score: 2}}
		data := mustEncode(t, st)
		i := bytes.Index(data, []byte("aaaaa"))
		j := bytes.Index(data, []byte("bbbbb"))
		copy(data[i:], "bbbbb")
		copy(data[j:], "aaaaa")
		patchCRC(data)
		if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "sorted") {
			t.Errorf("unsorted score table: %v", err)
		}
	})
	t.Run("huge-pending-count", func(t *testing.T) {
		// A small container advertising 2^31 pending frames must be
		// rejected by the budget/need checks, not allocate.
		st := &State{W: 4, H: 4, Mode: 0,
			Recovered: imagex.New(4, 4), Coverage: imagex.NewMask(4, 4)}
		data := mustEncode(t, st)
		// Payload layout: w(4) h(4) frames(8) mode(1) flags(1) fprint(8)
		// nScores(4)=0 nPending(4).
		off := 12 + 4 + 4 + 8 + 1 + 1 + 8 + 4
		binary.LittleEndian.PutUint32(data[off:], 1<<31)
		patchCRC(data)
		if _, err := Decode(data); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("huge pending count: %v", err)
		}
	})
	t.Run("mask-padding-bits", func(t *testing.T) {
		// Width 8 in a 64-bit word leaves 56 padding bits; setting one
		// must be rejected so whole-word mask ops stay sound.
		st := &State{W: 8, H: 2, Mode: 0,
			Recovered: imagex.New(8, 2), Coverage: imagex.NewMask(8, 2)}
		data := mustEncode(t, st)
		data[len(data)-7] = 0xff // high bytes of the final coverage word
		patchCRC(data)
		if _, err := Decode(data); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("nonzero padding bits: %v", err)
		}
	})
	t.Run("tight-limits", func(t *testing.T) {
		if _, err := DecodeWithLimits(valid, Limits{MaxDim: 4}); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("MaxDim below geometry: %v", err)
		}
		if _, err := DecodeWithLimits(valid, Limits{MaxScores: 1}); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("MaxScores below table: %v", err)
		}
		if _, err := DecodeWithLimits(valid, Limits{MaxPending: 1}); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("MaxPending below buffer: %v", err)
		}
		if _, err := DecodeWithLimits(valid, Limits{MaxNameLen: 2}); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("MaxNameLen below names: %v", err)
		}
		if _, err := DecodeWithLimits(valid, Limits{}); err != nil {
			t.Errorf("zero limits should mean defaults: %v", err)
		}
	})
}
