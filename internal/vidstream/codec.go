package vidstream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/bgbuster/bgbuster/internal/imagex"
)

// The .bbv container is a minimal raw video format for moving synthetic
// call recordings between the cmd/ tools:
//
//	magic "BBV1" | u32 fps | u32 w | u32 h | u32 frames | frames × w*h RGB triples
//
// All integers are little-endian; each frame is an imagex pixel raster
// (imagex.PixBytes). The format is intentionally uncompressed; the
// simulator's resolutions keep files small.

const codecMagic = "BBV1"

// ErrBadFormat is returned when decoding a stream that is not a valid
// .bbv container.
var ErrBadFormat = errors.New("vidstream: bad .bbv format")

// Encode writes the video to w in .bbv format.
func Encode(w io.Writer, v *Video) error {
	if err := v.Validate(); err != nil {
		return fmt.Errorf("vidstream: encode: %w", err)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(codecMagic); err != nil {
		return fmt.Errorf("vidstream: encode magic: %w", err)
	}
	fw, fh := v.Size()
	for _, u := range []uint32{uint32(v.FPS), uint32(fw), uint32(fh), uint32(v.Len())} {
		if err := binary.Write(bw, binary.LittleEndian, u); err != nil {
			return fmt.Errorf("vidstream: encode header: %w", err)
		}
	}
	for _, f := range v.Frames {
		if _, err := bw.Write(imagex.PixBytes(f.Pix)); err != nil {
			return fmt.Errorf("vidstream: encode frame: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("vidstream: encode flush: %w", err)
	}
	return nil
}

// DecodeLimits bounds the resources Decode commits to a container
// before any payload is read, so a crafted 20-byte header cannot make
// the decoder allocate gigabytes. Zero-valued fields fall back to the
// defaults.
type DecodeLimits struct {
	// MaxDim bounds each of frame width and height.
	MaxDim int
	// MaxFrames bounds the advertised frame count.
	MaxFrames int
	// MaxTotalBytes bounds the total decoded pixel payload — 3 bytes
	// per pixel per frame, across all frames. The header's advertised
	// product w×h×frames is checked against it before the first
	// allocation.
	MaxTotalBytes int64
}

// DefaultDecodeLimits returns the budget Decode uses: dimensions up to
// 2^14, up to 2^20 frames, and at most 256 MiB of decoded payload.
func DefaultDecodeLimits() DecodeLimits {
	return DecodeLimits{MaxDim: 1 << 14, MaxFrames: 1 << 20, MaxTotalBytes: 256 << 20}
}

func (l DecodeLimits) withDefaults() DecodeLimits {
	d := DefaultDecodeLimits()
	if l.MaxDim <= 0 {
		l.MaxDim = d.MaxDim
	}
	if l.MaxFrames <= 0 {
		l.MaxFrames = d.MaxFrames
	}
	if l.MaxTotalBytes <= 0 {
		l.MaxTotalBytes = d.MaxTotalBytes
	}
	return l
}

// Decode reads a .bbv container from r under DefaultDecodeLimits.
func Decode(r io.Reader) (*Video, error) {
	return DecodeWithLimits(r, DefaultDecodeLimits())
}

// DecodeWithLimits reads a .bbv container from r, rejecting (with an
// ErrBadFormat-wrapped error) any header whose advertised geometry,
// frame count, or total payload exceeds the limits — before allocating
// for the payload.
func DecodeWithLimits(r io.Reader, lim DecodeLimits) (*Video, error) {
	lim = lim.withDefaults()
	br := bufio.NewReader(r)
	magic := make([]byte, len(codecMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("vidstream: decode magic: %w", err)
	}
	if string(magic) != codecMagic {
		return nil, fmt.Errorf("vidstream: magic %q: %w", magic, ErrBadFormat)
	}
	var fps, w, h, n uint32
	for _, dst := range []*uint32{&fps, &w, &h, &n} {
		if err := binary.Read(br, binary.LittleEndian, dst); err != nil {
			return nil, fmt.Errorf("vidstream: decode header: %w", err)
		}
	}
	// n == 0 is rejected too: Encode validates its input, which
	// requires at least one frame, so a zero-frame container can only
	// be crafted — and would decode into a Video violating Validate.
	if w == 0 || h == 0 || n == 0 || int64(w) > int64(lim.MaxDim) || int64(h) > int64(lim.MaxDim) || int64(n) > int64(lim.MaxFrames) {
		return nil, fmt.Errorf("vidstream: implausible geometry %dx%d×%d: %w", w, h, n, ErrBadFormat)
	}
	// Each dimension fits in lim.MaxDim and n in lim.MaxFrames, but
	// their product need not: budget the advertised payload as a whole
	// before the first allocation.
	frameBytes := 3 * int64(w) * int64(h)
	if total := frameBytes * int64(n); total > lim.MaxTotalBytes {
		return nil, fmt.Errorf("vidstream: advertised payload %d bytes exceeds budget %d: %w",
			total, lim.MaxTotalBytes, ErrBadFormat)
	}
	// Each frame is allocated just before its bytes are read into it, so
	// a truncated container commits at most one frame beyond its data.
	v := New(int(fps))
	for i := uint32(0); i < n; i++ {
		f := imagex.New(int(w), int(h))
		if _, err := io.ReadFull(br, imagex.PixBytes(f.Pix)); err != nil {
			return nil, fmt.Errorf("vidstream: decode frame %d: %w", i, err)
		}
		v.Frames = append(v.Frames, f)
	}
	return v, nil
}

// Save writes the video to a .bbv file at path.
func Save(path string, v *Video) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("vidstream: create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("vidstream: close %s: %w", path, cerr)
		}
	}()
	return Encode(f, v)
}

// Load reads a .bbv file from path.
func Load(path string) (*Video, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("vidstream: open %s: %w", path, err)
	}
	defer f.Close()
	return Decode(f)
}
