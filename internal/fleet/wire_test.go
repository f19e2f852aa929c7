package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/imagex"
)

// testFrame builds a small deterministic frame; odd seeds carry an
// oracle mask with a few silhouette pixels.
func testFrame(w, h int, seed int) core.Frame {
	img := imagex.New(w, h)
	for i := range img.Pix {
		v := byte((i*7 + seed*13) % 251)
		img.Pix[i] = imagex.RGB{R: v, G: v + 1, B: v + 2}
	}
	f := core.Frame{Img: img}
	if seed%2 == 1 {
		m := imagex.NewMask(w, h)
		for y := 0; y < h; y += 2 {
			m.Set(seed%w, y, true)
		}
		f.Oracle = m
	}
	return f
}

// sampleMessages covers every wire message type with non-trivial
// payloads.
func sampleMessages() []*Message {
	return []*Message{
		{Type: MsgOpen, Spec: OpenSpec{ID: "call-00", W: 64, H: 48, UnknownVB: true, Seed: -12345}},
		{Type: MsgResume, Spec: OpenSpec{ID: "call-01", W: 32, H: 24, Seed: 7}, Ckpt: []byte{0xBB, 0xCC, 0x01, 0x00, 0xFF}},
		{Type: MsgFeed, Spec: OpenSpec{ID: "call-02"}, Frames: []core.Frame{testFrame(16, 12, 1)}},
		{Type: MsgFeed, Spec: OpenSpec{ID: "call-03"}, Frames: []core.Frame{
			testFrame(8, 8, 0), testFrame(8, 8, 1), testFrame(8, 8, 2),
		}},
		{Type: MsgSnapshot, Spec: OpenSpec{ID: "call-04"}},
		{Type: MsgCheckpoint, Spec: OpenSpec{ID: "call-05"}},
		{Type: MsgClose, Spec: OpenSpec{ID: "call-06"}},
		{Type: MsgDetach, Spec: OpenSpec{ID: "call-07"}},
		{Type: MsgDrain, Spec: OpenSpec{ID: "call-08"}},
		{Type: MsgOK},
		{Type: MsgErr, Code: CodeNoSession, Text: `session "x" not found`},
		{Type: MsgSnapResp, Snap: SnapInfo{
			ID: "call-09", Health: 1, Identified: true, Restored: true, Finalized: false,
			Fed: 100, Dropped: 3, Rejected: 2, Processed: 95, StreamFrames: 120,
			Coverage: 0.4375, VBName: "beach",
		}},
		{Type: MsgCkptResp, Ckpt: []byte("BBCKpayload")},
		{Type: MsgPing},
		{Type: MsgFence, Epoch: 7},
		{Type: MsgJoin, Addr: "10.0.0.9:7601"},
		{Type: MsgDrainShard, Addr: "10.0.0.4:7601"},
		{Type: MsgSetWeight, Addr: "10.0.0.5:7601", Weight: 4},
		{Type: MsgStatus},
		{Type: MsgStatusResp, Status: Status{
			Epoch: 3, Migrations: 4,
			Auto: AutopilotInfo{
				Enabled: true, Imbalance: 0.4375, Threshold: 0.25,
				Passes: 9, Moves: 3, Readmitted: 1, Promoted: 1,
				ScrubChecked: 12, ScrubRepairs: 2, ScrubSwept: 3, ScrubStuck: 0, OrphanDels: 1,
				LeaseHeld: true, LeaseHolder: "coord-a", LeaseTerm: 5, LeaseEpoch: 7,
				LeaseExpires: 1754600000,
			},
			Shards: []ShardStatus{
				{Addr: "10.0.0.1:7601", Weight: 2, Mem: 1 << 20, FeedMicros: 850, Opened: 9, Restores: 2, Restarts: 1,
					Sess: []SessionLoad{{ID: "call-00", Mem: 4096, Frames: 77}, {ID: "call-01", Mem: 8192, Frames: 12}}},
				{Addr: "10.0.0.2:7601", Role: RoleProbation, Weight: 1},
				{Addr: "10.0.0.3:7601", Role: RoleDraining, Weight: 1, Sess: []SessionLoad{{ID: "call-02", Mem: 4096, Frames: 5}}},
				{Addr: "10.0.0.4:7601", Role: RoleDown, Weight: 1, Err: "down"},
			},
		}},
		// A shard's own answer: its fenced epoch and one row.
		{Type: MsgStatusResp, Status: Status{Epoch: 7, Shards: []ShardStatus{
			{Mem: 4096, FeedMicros: 310, Opened: 1, Sess: []SessionLoad{{ID: "call-03", Mem: 4096, Frames: 40}}},
		}}},
	}
}

func TestWireRoundTripCanonical(t *testing.T) {
	for _, m := range sampleMessages() {
		buf, err := Encode(m)
		if err != nil {
			t.Fatalf("type 0x%02x: encode: %v", byte(m.Type), err)
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("type 0x%02x: decode: %v", byte(m.Type), err)
		}
		if !messagesEqual(m, got) {
			t.Fatalf("type 0x%02x: round trip mismatch:\n in: %+v\nout: %+v", byte(m.Type), m, got)
		}
		re, err := Encode(got)
		if err != nil {
			t.Fatalf("type 0x%02x: re-encode: %v", byte(m.Type), err)
		}
		if !bytes.Equal(buf, re) {
			t.Fatalf("type 0x%02x: non-canonical: encode(decode(b)) != b", byte(m.Type))
		}
	}
}

func TestWireReadWriteMessage(t *testing.T) {
	var buf bytes.Buffer
	msgs := sampleMessages()
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadMessage(&buf, Limits{})
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !messagesEqual(want, got) {
			t.Fatalf("message %d mismatch", i)
		}
	}
	if _, err := ReadMessage(&buf, Limits{}); !errors.Is(err, io.EOF) {
		t.Fatalf("after stream end: %v, want EOF", err)
	}
}

// messagesEqual compares the fields Encode writes for m.Type.
func messagesEqual(a, b *Message) bool {
	if a.Type != b.Type || a.Spec.ID != b.Spec.ID {
		return false
	}
	switch a.Type {
	case MsgOpen, MsgResume:
		if a.Spec != b.Spec {
			return false
		}
	}
	if len(a.Frames) != len(b.Frames) {
		return false
	}
	for i := range a.Frames {
		fa, fb := a.Frames[i], b.Frames[i]
		if !reflect.DeepEqual(fa.Img, fb.Img) {
			return false
		}
		if (fa.Oracle == nil) != (fb.Oracle == nil) {
			return false
		}
		if fa.Oracle != nil && !reflect.DeepEqual(fa.Oracle, fb.Oracle) {
			return false
		}
	}
	return bytes.Equal(a.Ckpt, b.Ckpt) && a.Code == b.Code && a.Text == b.Text &&
		a.Snap == b.Snap && a.Addr == b.Addr && a.Epoch == b.Epoch &&
		a.Weight == b.Weight && reflect.DeepEqual(a.Status, b.Status)
}

// TestWireGolden pins the byte layout of representative messages so an
// accidental format change cannot slip through as "still round-trips".
func TestWireGolden(t *testing.T) {
	open := &Message{Type: MsgOpen, Spec: OpenSpec{ID: "ab", W: 3, H: 2, UnknownVB: true, Seed: 5}}
	wantOpen := []byte{
		'B', 'B', 'F', 'L', // magic
		1, 0, // version
		0x01, 0x00, // type, reserved
		17, 0, 0, 0, // bodyLen
		2, 0, 'a', 'b', // id
		3, 0, 2, 0, // w, h
		1,                      // unknownVB
		5, 0, 0, 0, 0, 0, 0, 0, // seed
	}
	if got, _ := Encode(open); !bytes.Equal(got, wantOpen) {
		t.Fatalf("MsgOpen golden mismatch:\n got %v\nwant %v", got, wantOpen)
	}

	errM := &Message{Type: MsgErr, Code: 2, Text: "no"}
	wantErr := []byte{
		'B', 'B', 'F', 'L', 1, 0, 0x41, 0x00, 6, 0, 0, 0,
		2, 0, // code
		2, 0, 'n', 'o', // text
	}
	if got, _ := Encode(errM); !bytes.Equal(got, wantErr) {
		t.Fatalf("MsgErr golden mismatch:\n got %v\nwant %v", got, wantErr)
	}

	// A batch of one 1x1 frame with oracle: count + geometry + 3 raster
	// bytes + flag + one 8-byte mask word (bit 0 set).
	img := imagex.New(1, 1)
	img.Pix[0] = imagex.RGB{R: 9, G: 8, B: 7}
	mask := imagex.NewMask(1, 1)
	mask.Set(0, 0, true)
	feed := &Message{Type: MsgFeed, Spec: OpenSpec{ID: "z"}, Frames: []core.Frame{{Img: img, Oracle: mask}}}
	wantFeed := []byte{
		'B', 'B', 'F', 'L', 1, 0, 0x02, 0x00, 21, 0, 0, 0,
		1, 0, 'z', // id
		1, 0, // frame count
		1, 0, 1, 0, // w, h
		9, 8, 7, // raster
		1,                      // oracle present
		1, 0, 0, 0, 0, 0, 0, 0, // mask word
	}
	if got, _ := Encode(feed); !bytes.Equal(got, wantFeed) {
		t.Fatalf("MsgFeed golden mismatch:\n got %v\nwant %v", got, wantFeed)
	}

	fence := &Message{Type: MsgFence, Epoch: 0x0102030405060708}
	wantFence := []byte{
		'B', 'B', 'F', 'L', 1, 0, 0x0C, 0x00, 8, 0, 0, 0,
		8, 7, 6, 5, 4, 3, 2, 1, // epoch, little-endian
	}
	if got, _ := Encode(fence); !bytes.Equal(got, wantFence) {
		t.Fatalf("MsgFence golden mismatch:\n got %v\nwant %v", got, wantFence)
	}

	join := &Message{Type: MsgJoin, Addr: "a:1"}
	wantJoin := []byte{
		'B', 'B', 'F', 'L', 1, 0, 0x0D, 0x00, 5, 0, 0, 0,
		3, 0, 'a', ':', '1', // addr
	}
	if got, _ := Encode(join); !bytes.Equal(got, wantJoin) {
		t.Fatalf("MsgJoin golden mismatch:\n got %v\nwant %v", got, wantJoin)
	}

	setw := &Message{Type: MsgSetWeight, Addr: "a:1", Weight: 3}
	wantSetW := []byte{
		'B', 'B', 'F', 'L', 1, 0, 0x11, 0x00, 7, 0, 0, 0,
		3, 0, 'a', ':', '1', // addr
		3, 0, // weight
	}
	if got, _ := Encode(setw); !bytes.Equal(got, wantSetW) {
		t.Fatalf("MsgSetWeight golden mismatch:\n got %v\nwant %v", got, wantSetW)
	}

	status := &Message{Type: MsgStatusResp, Status: Status{
		Epoch: 2, Migrations: 3,
		Auto: AutopilotInfo{
			Enabled: true, LeaseHeld: true, Imbalance: 0.5, Threshold: 0.25,
			Passes: 1, Moves: 2, Readmitted: 3, Promoted: 4,
			ScrubChecked: 5, ScrubRepairs: 6, ScrubSwept: 7, ScrubStuck: 8, OrphanDels: 9,
			LeaseHolder: "c", LeaseTerm: 10, LeaseEpoch: 11, LeaseExpires: 12,
		},
		Shards: []ShardStatus{{
			Addr: "b:2", Role: RoleDraining, Weight: 2,
			Mem: 5, FeedMicros: 6, Opened: 7, Restores: 8, Restarts: 9,
			Sess: []SessionLoad{{ID: "s", Mem: 10, Frames: 11}},
		}},
	}}
	wantStatus := []byte{
		'B', 'B', 'F', 'L', 1, 0, 0x48, 0x00, 205, 0, 0, 0,
		2, 0, 0, 0, 0, 0, 0, 0, // epoch
		3, 0, 0, 0, 0, 0, 0, 0, // migrations
		0x03,                         // flags: enabled | lease held
		0, 0, 0, 0, 0, 0, 0xE0, 0x3F, // imbalance 0.5
		0, 0, 0, 0, 0, 0, 0xD0, 0x3F, // threshold 0.25
		1, 0, 0, 0, 0, 0, 0, 0, // passes
		2, 0, 0, 0, 0, 0, 0, 0, // moves
		3, 0, 0, 0, 0, 0, 0, 0, // readmitted
		4, 0, 0, 0, 0, 0, 0, 0, // promoted
		5, 0, 0, 0, 0, 0, 0, 0, // scrub checked
		6, 0, 0, 0, 0, 0, 0, 0, // scrub repairs
		7, 0, 0, 0, 0, 0, 0, 0, // scrub swept
		8, 0, 0, 0, 0, 0, 0, 0, // scrub stuck
		9, 0, 0, 0, 0, 0, 0, 0, // orphaned deletes
		1, 0, 'c', // lease holder
		10, 0, 0, 0, 0, 0, 0, 0, // lease term
		11, 0, 0, 0, 0, 0, 0, 0, // lease epoch
		12, 0, 0, 0, 0, 0, 0, 0, // lease expires
		1, 0, // row count
		3, 0, 'b', ':', '2', // addr
		2,    // role (draining)
		2, 0, // weight
		5, 0, 0, 0, 0, 0, 0, 0, // mem
		6, 0, 0, 0, 0, 0, 0, 0, // feed micros
		7, 0, 0, 0, 0, 0, 0, 0, // opened
		8, 0, 0, 0, 0, 0, 0, 0, // restores
		9, 0, 0, 0, 0, 0, 0, 0, // restarts
		0, 0, // err (empty)
		1, 0, // session count
		1, 0, 's', // id
		10, 0, 0, 0, 0, 0, 0, 0, // session mem
		11, 0, 0, 0, 0, 0, 0, 0, // session frames
	}
	if got, _ := Encode(status); !bytes.Equal(got, wantStatus) {
		t.Fatalf("MsgStatusResp golden mismatch:\n got %v\nwant %v", got, wantStatus)
	}
}

// craftStatus encodes a MsgStatusResp and lets patch corrupt it: the
// crafted rejections and fuzz seeds below start from a valid message.
func craftStatus(st Status, patch func(b []byte) []byte) []byte {
	b, err := Encode(&Message{Type: MsgStatusResp, Status: st})
	if err != nil {
		panic(err)
	}
	return patch(b)
}

// statusFlagsAt is the offset of the autopilot flags byte in an
// encoded MsgStatusResp (after the epoch and migration counts).
const statusFlagsAt = headerLen + 16

// setLastU16 overwrites the trailing u16 of b — the row count of a
// rowless status, or the session count of a last row without sessions.
func setLastU16(v uint16) func(b []byte) []byte {
	return func(b []byte) []byte {
		binary.LittleEndian.PutUint16(b[len(b)-2:], v)
		return b
	}
}

func TestWireDecodeRejections(t *testing.T) {
	valid, _ := Encode(&Message{Type: MsgOpen, Spec: OpenSpec{ID: "x", W: 2, H: 2, Seed: 1}})

	corrupt := func(mut func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return mut(b)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"short", valid[:8], ErrBadMessage},
		{"magic", corrupt(func(b []byte) []byte { b[0] = 'X'; return b }), ErrBadMessage},
		{"version", corrupt(func(b []byte) []byte { b[4] = 9; return b }), ErrVersion},
		{"reserved", corrupt(func(b []byte) []byte { b[7] = 1; return b }), ErrBadMessage},
		{"type", corrupt(func(b []byte) []byte { b[6] = 0x3F; return b }), ErrBadMessage},
		{"trailing", append(append([]byte(nil), corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], uint32(len(b)-12+1))
			return b
		})...), 0), ErrBadMessage},
		{"bodyLenMismatch", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], 999)
			return b
		}), ErrBadMessage},
	}
	// The status-style codes retired in favour of MsgStatus/MsgStatusResp,
	// and the batch-feed code retired in favour of MsgFeed, decode as
	// unknown types.
	for _, typ := range []byte{0x03, 0x09, 0x0F, 0x10, 0x12, 0x44, 0x45, 0x46, 0x47} {
		cases = append(cases, struct {
			name string
			data []byte
			want error
		}{fmt.Sprintf("retired 0x%02x", typ), []byte{'B', 'B', 'F', 'L', 1, 0, typ, 0, 0, 0, 0, 0}, ErrBadMessage})
	}
	for _, tc := range cases {
		if _, err := Decode(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// Non-boolean unknown-vb flag.
	bad := corrupt(func(b []byte) []byte { b[12+2+1+4] = 2; return b })
	if _, err := Decode(bad); !errors.Is(err, ErrBadMessage) {
		t.Errorf("non-boolean flag: %v", err)
	}

	// Oversized id versus MaxIDLen budget.
	long, _ := Encode(&Message{Type: MsgSnapshot, Spec: OpenSpec{ID: strings.Repeat("a", 64)}})
	if _, err := DecodeWithLimits(long, Limits{MaxIDLen: 8}); !errors.Is(err, ErrBadMessage) {
		t.Errorf("id budget: %v", err)
	}

	// Mask with a nonzero padding bit (w=1 uses bit 0 of the word only).
	feedBad := []byte{
		'B', 'B', 'F', 'L', 1, 0, 0x02, 0x00, 21, 0, 0, 0,
		1, 0, 'z', 1, 0, 1, 0, 1, 0, 9, 8, 7, 1,
		0x02, 0, 0, 0, 0, 0, 0, 0, // bit 1 set: padding violation
	}
	if _, err := Decode(feedBad); !errors.Is(err, ErrBadMessage) {
		t.Errorf("mask padding: %v", err)
	}

	// Batch count of zero is non-canonical.
	zeroBatch := []byte{
		'B', 'B', 'F', 'L', 1, 0, 0x02, 0x00, 5, 0, 0, 0,
		1, 0, 'z', 0, 0,
	}
	if _, err := Decode(zeroBatch); !errors.Is(err, ErrBadMessage) {
		t.Errorf("zero batch: %v", err)
	}

	// Autopilot flags byte with an undefined bit set is non-canonical.
	flagsBad := craftStatus(Status{Auto: AutopilotInfo{Enabled: true}}, func(b []byte) []byte {
		b[statusFlagsAt] |= 0x04
		return b
	})
	if _, err := Decode(flagsBad); !errors.Is(err, ErrBadMessage) {
		t.Errorf("autopilot flags: %v", err)
	}

	// A status-row bomb — huge claimed row count against a tiny body —
	// must die on the length budget before any row allocation.
	if _, err := Decode(craftStatus(Status{}, setLastU16(0xFFFF))); !errors.Is(err, ErrBadMessage) {
		t.Errorf("status row bomb: %v", err)
	}

	// Same for the per-row session list.
	oneRow := Status{Shards: []ShardStatus{{Weight: 1}}}
	if _, err := Decode(craftStatus(oneRow, setLastU16(0xFFFF))); !errors.Is(err, ErrBadMessage) {
		t.Errorf("status session bomb: %v", err)
	}

	// A role past the last defined one is rejected. The empty-address
	// row is the last 49 bytes, with the role at +2.
	bad = craftStatus(oneRow, func(b []byte) []byte { b[len(b)-(49-2)] = 4; return b })
	if _, err := Decode(bad); !errors.Is(err, ErrBadMessage) {
		t.Errorf("status row role out of range: %v", err)
	}
}

// TestWireGeometryBombRejected crafts a tiny message whose frame
// header claims a huge raster: the decoder must reject it from the
// length check alone, before any allocation.
func TestWireGeometryBombRejected(t *testing.T) {
	body := []byte{1, 0, 'z', 1, 0} // id, frame count
	body = append(body, 0xFF, 0xFF) // w = 65535
	body = append(body, 0xFF, 0xFF) // h = 65535
	body = append(body, 1, 2, 3)    // 3 "raster" bytes
	msg := []byte{'B', 'B', 'F', 'L', 1, 0, 0x02, 0x00}
	msg = binary.LittleEndian.AppendUint32(msg, uint32(len(body)))
	msg = append(msg, body...)

	if _, err := Decode(msg); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("geometry bomb: %v", err)
	}
	// Within the dimension budget but with a raster far larger than the
	// body: need() must fire before the image allocation.
	body2 := []byte{1, 0, 'z', 1, 0, 0, 4, 0, 4} // 1024x1024 claimed
	msg2 := []byte{'B', 'B', 'F', 'L', 1, 0, 0x02, 0x00}
	msg2 = binary.LittleEndian.AppendUint32(msg2, uint32(len(body2)))
	msg2 = append(msg2, body2...)
	if _, err := Decode(msg2); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("raster bomb: %v", err)
	}
}

// countingReader fails the test if more than limit bytes are read —
// how we prove ReadMessage rejects an over-budget body from the header
// alone, without buffering the body.
type countingReader struct {
	t     *testing.T
	data  []byte
	off   int
	limit int
}

func (r *countingReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off += n
	if r.off > r.limit {
		r.t.Fatalf("reader consumed %d bytes, limit %d", r.off, r.limit)
	}
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

func TestReadMessageBodyBudgetStopsAtHeader(t *testing.T) {
	// Header advertising a 100 MiB body, followed by garbage the reader
	// must never touch.
	hdr := []byte{'B', 'B', 'F', 'L', 1, 0, 0x02, 0x00}
	hdr = binary.LittleEndian.AppendUint32(hdr, 100<<20)
	data := append(hdr, bytes.Repeat([]byte{0xAA}, 4096)...)

	r := &countingReader{t: t, data: data, limit: headerLen}
	_, err := ReadMessage(r, Limits{MaxBody: 1 << 20})
	if !errors.Is(err, ErrBadMessage) {
		t.Fatalf("over-budget body: %v", err)
	}
}

func TestSnapRespCoverageBits(t *testing.T) {
	// Coverage crosses the wire as raw float bits — including values a
	// lossy fixed-point encoding would mangle.
	for _, cov := range []float64{0, 1, 0.123456789, math.SmallestNonzeroFloat64} {
		m := &Message{Type: MsgSnapResp, Snap: SnapInfo{ID: "c", Coverage: cov}}
		buf, _ := Encode(m)
		got, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Snap.Coverage != cov {
			t.Fatalf("coverage %v -> %v", cov, got.Snap.Coverage)
		}
	}
}

// TestEncodeRejectsFieldOverflow pins that a field wider than its u16
// wire slot is an encode error. Truncating it to len%65536 produced a
// message every decoder rejected (a 65540-byte id decoded to "65536
// trailing bytes").
func TestEncodeRejectsFieldOverflow(t *testing.T) {
	long := strings.Repeat("x", math.MaxUint16+5)
	tiny := core.Frame{Img: imagex.New(1, 1)}
	batch := make([]core.Frame, math.MaxUint16+1)
	for i := range batch {
		batch[i] = tiny
	}
	for _, c := range []struct {
		name string
		m    *Message
	}{
		{"session id", &Message{Type: MsgClose, Spec: OpenSpec{ID: long}}},
		{"feed id", &Message{Type: MsgFeed, Spec: OpenSpec{ID: long}, Frames: []core.Frame{tiny}}},
		{"address", &Message{Type: MsgJoin, Addr: long}},
		{"error text", &Message{Type: MsgErr, Code: CodeInternal, Text: long}},
		{"VB name", &Message{Type: MsgSnapResp, Snap: SnapInfo{ID: "s", VBName: long}}},
		{"spec width", &Message{Type: MsgOpen, Spec: OpenSpec{ID: "s", W: math.MaxUint16 + 1, H: 1}}},
		{"frame width", &Message{Type: MsgFeed, Spec: OpenSpec{ID: "s"}, Frames: []core.Frame{{Img: imagex.New(math.MaxUint16+1, 1)}}}},
		{"frame height", &Message{Type: MsgFeed, Spec: OpenSpec{ID: "s"}, Frames: []core.Frame{{Img: imagex.New(1, math.MaxUint16+1)}}}},
		{"batch count", &Message{Type: MsgFeed, Spec: OpenSpec{ID: "s"}, Frames: batch}},
		{"status rows", &Message{Type: MsgStatusResp, Status: Status{Shards: make([]ShardStatus, math.MaxUint16+1)}}},
		{"session loads", &Message{Type: MsgStatusResp, Status: Status{Shards: []ShardStatus{{Sess: make([]SessionLoad, math.MaxUint16+1)}}}}},
		{"lease holder", &Message{Type: MsgStatusResp, Status: Status{Auto: AutopilotInfo{LeaseHolder: long}}}},
	} {
		if b, err := Encode(c.m); err == nil {
			_, derr := Decode(b)
			t.Errorf("%s overflowing u16: Encode returned %d bytes and no error (Decode: %v)", c.name, len(b), derr)
		}
	}

	// The widest values that fit still round-trip.
	lim := Limits{MaxIDLen: math.MaxUint16, MaxBatch: math.MaxUint16}
	for _, m := range []*Message{
		{Type: MsgClose, Spec: OpenSpec{ID: long[:math.MaxUint16]}},
		{Type: MsgFeed, Spec: OpenSpec{ID: "s"}, Frames: batch[:math.MaxUint16]},
	} {
		b, err := Encode(m)
		if err != nil {
			t.Fatalf("%v at the u16 limit: %v", m.Type, err)
		}
		if _, err := DecodeWithLimits(b, lim); err != nil {
			t.Fatalf("%v at the u16 limit: decode: %v", m.Type, err)
		}
	}
}
