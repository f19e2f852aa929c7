package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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

// maskedImage returns testImage(w, h, seed) with every pixel outside m
// zeroed, as a stream's residue and derived image are.
func maskedImage(w, h int, seed byte, m *imagex.Mask) *imagex.Image {
	img := testImage(w, h, seed)
	for i := range img.Pix {
		if !m.GetI(i) {
			img.Pix[i] = imagex.RGB{}
		}
	}
	return img
}

// knownState builds a representative known-image state: a score table,
// a pinned VB name and a non-empty pending buffer (the buffer would be
// empty after identification in a real stream, but the format does not
// care — core.validateResumeState does).
func knownState(w, h int) *State {
	cov := testMask(w, h, 9)
	hist := make([]int, histBins)
	hist[0], hist[17], hist[histBins-1] = 4, 9, 1
	return &State{
		W: w, H: h, Mode: 0, Frames: 42, Fingerprint: 0xdeadbeefcafe,
		Identified: true, VBName: "beach",
		Scores:         []Score{{Name: "beach", Score: 900}, {Name: "office", Score: 120}},
		PendingFrames:  []*imagex.Image{testImage(w, h, 1), testImage(w, h, 2)},
		PendingOracles: []*imagex.Mask{testMask(w, h, 1), testMask(w, h, 2)},
		Hist:           hist, HistTotal: 14,
		Recovered: maskedImage(w, h, 9, cov), Coverage: cov,
	}
}

// pendingState builds a known-image state still inside the
// identification window: scores and buffered frames, no pinned VB.
func pendingState(w, h int) *State {
	st := knownState(w, h)
	st.Identified, st.VBName = false, ""
	return st
}

// unknownState builds a representative unknown-image state: every mask
// partly set, and a run counter other than 1 on every pixel, including
// those under LocalKnown that the format leaves out.
func unknownState(w, h int) *State {
	runLen := make([]uint16, w*h)
	for i := range runLen {
		runLen[i] = uint16(2 + i%7)
	}
	known, cov := testMask(w, h, 3), testMask(w, h, 8)
	return &State{
		W: w, H: h, Mode: 1, Frames: 7, Fingerprint: 1,
		DerivedImg: maskedImage(w, h, 3, known), DerivedKnown: known,
		LocalKnown: testMask(w, h, 4), RunLen: runLen, Prev: testImage(w, h, 6),
		Recovered: maskedImage(w, h, 8, cov), Coverage: cov,
	}
}

// wordsState is unknownState over masks whose rows are whole words
// apart: full, empty and partly set rows in turn, so the masked
// sections meet every kind of mask word. It carries a histogram too.
func wordsState(w, h int) *State {
	st := unknownState(w, h)
	rows := func(seed int) *imagex.Mask {
		m := testMask(w, h, seed)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				switch (y + seed) % 3 {
				case 0:
					m.Set(x, y, true)
				case 1:
					m.Set(x, y, false)
				}
			}
		}
		return m
	}
	st.DerivedKnown, st.LocalKnown, st.Coverage = rows(0), rows(1), rows(2)
	st.DerivedImg = maskedImage(w, h, 3, st.DerivedKnown)
	st.Recovered = maskedImage(w, h, 8, st.Coverage)
	st.Hist = make([]int, histBins)
	st.Hist[5], st.Hist[4000], st.HistTotal = 2, 7, 9
	return st
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
		{"unknown-words", wordsState(130, 6)},
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
				want := tc.st.RunLen[i]
				if tc.st.LocalKnown.GetI(i) {
					want = 1 // left out under LocalKnown, and decoded as 1
				}
				if got.RunLen[i] != want {
					t.Fatalf("runLen[%d] = %d, want %d", i, got.RunLen[i], want)
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
			// reproduce the container byte for byte. The fixtures' run
			// counters under LocalKnown are not 1, so this also shows
			// that the container leaves them out.
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
		st.RunLen = st.RunLen[:3]
		if _, err := Encode(st); err == nil {
			t.Error("Encode accepted a run-length table of the wrong size")
		}
	})
	t.Run("negative-hist-bin", func(t *testing.T) {
		st := knownState(4, 4)
		st.Hist[3] = -1
		if _, err := Encode(st); err == nil {
			t.Error("Encode accepted a negative histogram bin")
		}
	})
	t.Run("mask-geometry", func(t *testing.T) {
		st := unknownState(4, 4)
		st.DerivedKnown = imagex.NewMask(4, 3)
		if _, err := Encode(st); err == nil {
			t.Error("Encode accepted a derived-known mask of another geometry")
		}
	})
	// A non-zero pixel outside its section's mask fails Encode instead
	// of being dropped: in an empty mask word, beside a run of set bits
	// and in a row's partial last word.
	for _, sec := range []struct {
		name string
		pick func(st *State) (*imagex.Image, *imagex.Mask)
	}{
		{"residue", func(st *State) (*imagex.Image, *imagex.Mask) { return st.Recovered, st.Coverage }},
		{"derived", func(st *State) (*imagex.Image, *imagex.Mask) { return st.DerivedImg, st.DerivedKnown }},
	} {
		for _, at := range []struct{ x, y int }{{0, 0}, {70, 2}, {129, 5}} {
			t.Run(fmt.Sprintf("pixel-outside-%s-%d-%d", sec.name, at.x, at.y), func(t *testing.T) {
				st := wordsState(130, 6)
				img, m := sec.pick(st)
				// Clearing the bit leaves a one-pixel gap in a set row and
				// changes nothing elsewhere.
				m.Set(at.x, at.y, false)
				img.Set(at.x, at.y, imagex.RGB{B: 1})
				if _, err := Encode(st); err == nil {
					t.Error("Encode accepted a non-zero pixel outside the mask")
				}
				img.Set(at.x, at.y, imagex.RGB{})
				if _, err := Encode(st); err != nil {
					t.Errorf("zeroing the pixel still fails: %v", err)
				}
			})
		}
	}
}

// TestIdentifiedKnownEncodedLength pins the layout of a pinned known-image
// state (no pending buffer, as after identification): the VB travels as
// its name only, so the container is the header, the score table, the
// name, the empty pending and derivation sections, the histogram's
// non-zero bins and the residue's covered pixels — with no raster for
// the pinned VB.
func TestIdentifiedKnownEncodedLength(t *testing.T) {
	for _, g := range []struct{ w, h int }{{13, 9}, {320, 240}} {
		st := knownState(g.w, g.h)
		st.PendingFrames, st.PendingOracles = nil, nil
		mw := imagex.MaskWordBytes(g.w, g.h)
		want := 12 + // magic, version, reserved, CRC
			26 + // geometry, frames, mode, flags, fingerprint
			4 + (2 + len("beach") + 8) + (2 + len("office") + 8) + // score table
			2 + len("beach") + // pinned VB name
			4 + // pending count (0)
			1 + // derivation presence byte (absent)
			2 + 3*(2+8) + 8 + // histogram: entry count, 3 non-zero bins, total
			mw + 3*st.Coverage.Count() // coverage, then the covered pixels
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

// TestDecodeRejectsOlderVersions checks that containers from earlier
// format versions are refused as version skew rather than parsed:
// version 1 embedded the pinned VB raster, and version 2 stored every
// pixel, run counter and histogram bin. The version field is patched on
// an otherwise valid container, with its CRC recomputed.
func TestDecodeRejectsOlderVersions(t *testing.T) {
	for v := uint16(1); v < Version; v++ {
		data := mustEncode(t, knownState(8, 6))
		binary.LittleEndian.PutUint16(data[4:], v)
		patchCRC(data)
		if _, err := Decode(data); !errors.Is(err, ErrVersion) {
			t.Errorf("version-%d container: %v does not wrap ErrVersion", v, err)
		}
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
	t.Run("histogram-entries", func(t *testing.T) {
		// knownState's histogram holds bins 0, 17 and 4095; the section
		// sits right before the residue (coverage words, covered pixels).
		st := knownState(8, 6)
		enc := mustEncode(t, st)
		entry := len(enc) - (imagex.MaskWordBytes(8, 6) + 3*st.Coverage.Count()) - 8 - 3*10
		if binary.LittleEndian.Uint16(enc[entry+10:]) != 17 || binary.LittleEndian.Uint64(enc[entry+12:]) != 9 {
			t.Fatal("histogram section is not where the layout puts it")
		}
		for _, tc := range []struct {
			name   string
			mutate func(b []byte)
		}{
			{"bin-out-of-range", func(b []byte) { binary.LittleEndian.PutUint16(b[entry+20:], histBins) }},
			{"zero-count", func(b []byte) { binary.LittleEndian.PutUint64(b[entry+12:], 0) }},
			{"repeated-bin", func(b []byte) { binary.LittleEndian.PutUint16(b[entry+10:], 0) }},
			{"descending-bin", func(b []byte) { binary.LittleEndian.PutUint16(b[entry+20:], 5) }},
			{"count-over-bins", func(b []byte) { binary.LittleEndian.PutUint16(b[entry-2:], histBins+1) }},
		} {
			data := append([]byte(nil), enc...)
			tc.mutate(data)
			patchCRC(data)
			if _, err := Decode(data); !errors.Is(err, ErrBadCheckpoint) || !strings.Contains(err.Error(), "histogram") {
				t.Errorf("%s: %v", tc.name, err)
			}
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
