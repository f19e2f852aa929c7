// Package binfmt is the bounded reader under the repo's binary formats
// (.bbck checkpoints and the fleet wire): a little-endian cursor whose
// every accessor checks the remaining input before it reads, and whose
// section readers (Str, Image, Mask) check a section's full size before
// they allocate for it, so a crafted length or count is rejected rather
// than trusted. Every rejection wraps the sentinel the Reader was made
// with, so a format's callers keep testing errors.Is(err, ErrBadX).
//
// Writers need no counterpart: the formats append with
// binary.LittleEndian.AppendUint16/32/64, imagex.AppendPix and
// (*imagex.Mask).AppendWords.
package binfmt

import (
	"encoding/binary"
	"fmt"

	"github.com/bgbuster/bgbuster/internal/imagex"
)

// Reader is a bounds-checked cursor over one encoded payload.
type Reader struct {
	data []byte
	off  int
	bad  error
}

// NewReader returns a Reader over data whose rejections wrap bad.
func NewReader(data []byte, bad error) *Reader {
	return &Reader{data: data, bad: bad}
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// Need rejects a section of n bytes that the remaining input cannot
// hold, without consuming anything. Decoders call it with a section's
// full advertised size (a count times its minimum entry size, say)
// before allocating for the section; a negative n is rejected too.
func (r *Reader) Need(n int64) error {
	if n < 0 || n > int64(r.Remaining()) {
		return fmt.Errorf("section of %d bytes exceeds %d remaining: %w", n, r.Remaining(), r.bad)
	}
	return nil
}

// Bytes consumes the next n bytes. The result aliases the input.
func (r *Reader) Bytes(n int) ([]byte, error) {
	if err := r.Need(int64(n)); err != nil {
		return nil, err
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

// U8 consumes one byte.
func (r *Reader) U8() (byte, error) {
	b, err := r.Bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// U16 consumes a little-endian uint16.
func (r *Reader) U16() (uint16, error) {
	b, err := r.Bytes(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

// U32 consumes a little-endian uint32.
func (r *Reader) U32() (uint32, error) {
	b, err := r.Bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// U64 consumes a little-endian uint64.
func (r *Reader) U64() (uint64, error) {
	b, err := r.Bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// Str consumes a u16-length-prefixed string of at most maxLen bytes.
func (r *Reader) Str(maxLen int) (string, error) {
	n, err := r.U16()
	if err != nil {
		return "", err
	}
	if int(n) > maxLen {
		return "", fmt.Errorf("%d-byte string exceeds budget %d: %w", n, maxLen, r.bad)
	}
	b, err := r.Bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Image consumes a w×h raster (imagex.AppendPix layout). w and h must be
// positive; callers bound them before asking.
func (r *Reader) Image(w, h int) (*imagex.Image, error) {
	b, err := r.Bytes(3 * w * h)
	if err != nil {
		return nil, err
	}
	img := imagex.New(w, h)
	imagex.DecodePix(img.Pix, b)
	return img, nil
}

// Mask consumes a w×h packed-word mask ((*imagex.Mask).AppendWords
// layout), rejecting nonzero row-padding bits. The section is sized by
// imagex.MaskWordBytes and checked before the mask is allocated. w and h
// must be positive.
func (r *Reader) Mask(w, h int) (*imagex.Mask, error) {
	b, err := r.Bytes(imagex.MaskWordBytes(w, h))
	if err != nil {
		return nil, err
	}
	m := imagex.NewMask(w, h)
	if err := m.LoadWords(b); err != nil {
		return nil, fmt.Errorf("%w: %w", err, r.bad)
	}
	return m, nil
}
