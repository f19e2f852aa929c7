package vidstream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"github.com/bgbuster/bgbuster/internal/imagex"
)

// bbvHeader builds a syntactically valid .bbv header with the given
// advertised geometry and frame count, and no payload.
func bbvHeader(fps, w, h, n uint32) []byte {
	var buf bytes.Buffer
	buf.WriteString(codecMagic)
	for _, u := range []uint32{fps, w, h, n} {
		_ = binary.Write(&buf, binary.LittleEndian, u)
	}
	return buf.Bytes()
}

// TestDecodeRejectsOversizedPayload is the regression for the crafted
// header attack: each dimension and the frame count individually pass
// the per-field bounds, but their product advertises ~768 MB per frame
// across 2^20 frames. The decoder must reject it from the 20-byte
// header alone, without allocating the advertised payload.
func TestDecodeRejectsOversizedPayload(t *testing.T) {
	crafted := bbvHeader(30, 1<<14, 1<<14, 1<<20)
	if _, err := Decode(bytes.NewReader(crafted)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("crafted oversized header error = %v, want ErrBadFormat", err)
	}
	// A zero-frame header is rejected outright: Encode can never
	// produce one (Validate requires ≥1 frame), and decoding it would
	// yield a Video violating the package invariants.
	empty := bbvHeader(30, 8, 8, 0)
	if _, err := Decode(bytes.NewReader(empty)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("zero-frame header error = %v, want ErrBadFormat", err)
	}
}

func TestDecodeWithLimitsBudget(t *testing.T) {
	v := New(30)
	if err := v.Append(imagex.NewFilled(8, 8, imagex.RGB{R: 1})); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, v); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// A budget below the single 8×8 frame (192 bytes) rejects it…
	if _, err := DecodeWithLimits(bytes.NewReader(data), DecodeLimits{MaxTotalBytes: 100}); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("tight budget error = %v, want ErrBadFormat", err)
	}
	// …a sufficient one accepts it, with the other limits defaulted.
	got, err := DecodeWithLimits(bytes.NewReader(data), DecodeLimits{MaxTotalBytes: 192})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("len = %d", got.Len())
	}
	// Tightened per-field limits still apply.
	if _, err := DecodeWithLimits(bytes.NewReader(data), DecodeLimits{MaxDim: 4}); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("MaxDim error = %v, want ErrBadFormat", err)
	}
	if _, err := DecodeWithLimits(bytes.NewReader(data), DecodeLimits{MaxFrames: 1}); err != nil {
		t.Fatalf("MaxFrames=1 must admit a 1-frame video: %v", err)
	}
}

// TestDecodeRejectsTruncatedFrame cuts a three-frame container inside
// frame 0, on the boundary before frame 1 and inside frame 1: each cut
// fails with the error of the frame it falls in.
func TestDecodeRejectsTruncatedFrame(t *testing.T) {
	const w, h = 5, 3
	rng := rand.New(rand.NewSource(4))
	v := New(30)
	for i := 0; i < 3; i++ {
		f := imagex.New(w, h)
		f.AddNoise(rng, 120)
		if err := v.Append(f); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := Encode(&buf, v); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	header, frame := len(bbvHeader(0, 0, 0, 0)), 3*w*h
	for _, c := range []struct {
		cut, frame int
		want       error
	}{
		{header + 1, 0, io.ErrUnexpectedEOF},
		{header + frame - 1, 0, io.ErrUnexpectedEOF},
		{header + frame, 1, io.EOF},
		{header + frame + frame/2, 1, io.ErrUnexpectedEOF},
	} {
		_, err := Decode(bytes.NewReader(data[:c.cut]))
		if !errors.Is(err, c.want) || !strings.Contains(fmt.Sprint(err), fmt.Sprintf("decode frame %d:", c.frame)) {
			t.Errorf("cut at byte %d: error %v, want decode frame %d: %v", c.cut, err, c.frame, c.want)
		}
	}
}
