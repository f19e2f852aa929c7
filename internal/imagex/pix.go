package imagex

import (
	"encoding/binary"
	"slices"
)

// The pixel raster codec. Every byte format that carries an image — .bbv
// frames, .bbck images, fleet wire frames and the options fingerprint —
// stores it as R, G, B bytes per pixel in row-major order, with no
// padding and no geometry (the container records W and H). AppendPix and
// DecodePix are that layout's only implementation.
//
// Both move eight pixels at a time as three little-endian uint64 words
// (24 bytes), packing each pixel into a 24-bit lane, and finish the last
// len%8 pixels one at a time.

// AppendPix appends the raster of pix to buf and returns the extended
// slice. buf grows at most once, with amortised headroom, so bytes
// appended after the raster rarely reallocate.
func AppendPix(buf []byte, pix []RGB) []byte {
	n := len(buf)
	buf = slices.Grow(buf, 3*len(pix))[:n+3*len(pix)]
	out := buf[n:]
	for ; len(pix) >= 8; pix, out = pix[8:], out[24:] {
		g, o := (*[8]RGB)(pix), (*[24]byte)(out)
		p2, p5 := lane(g[2]), lane(g[5])
		binary.LittleEndian.PutUint64(o[0:], lane(g[0])|lane(g[1])<<24|p2<<48)
		binary.LittleEndian.PutUint64(o[8:], p2>>16|lane(g[3])<<8|lane(g[4])<<32|p5<<56)
		binary.LittleEndian.PutUint64(o[16:], p5>>8|lane(g[6])<<16|lane(g[7])<<40)
	}
	for i, p := range pix {
		out[3*i], out[3*i+1], out[3*i+2] = p.R, p.G, p.B
	}
	return buf
}

// DecodePix fills dst from the raster in the first 3·len(dst) bytes of
// b, ignoring any bytes after them. It panics when b is shorter;
// decoders bound-check the section first.
func DecodePix(dst []RGB, b []byte) {
	b = b[:3*len(dst)]
	for ; len(dst) >= 8; dst, b = dst[8:], b[24:] {
		s := (*[24]byte)(b)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		w2 := binary.LittleEndian.Uint64(s[16:])
		g := (*[8]RGB)(dst)
		g[0], g[1], g[2] = unlane(w0), unlane(w0>>24), unlane(w0>>48|w1<<16)
		g[3], g[4], g[5] = unlane(w1>>8), unlane(w1>>32), unlane(w1>>56|w2<<8)
		g[6], g[7] = unlane(w2>>16), unlane(w2>>40)
	}
	for i := range dst {
		dst[i] = RGB{R: b[3*i], G: b[3*i+1], B: b[3*i+2]}
	}
}

// lane packs a pixel into the low 24 bits of a word, R lowest.
func lane(p RGB) uint64 { return uint64(p.R) | uint64(p.G)<<8 | uint64(p.B)<<16 }

// unlane unpacks the low 24 bits of w; the higher bits are ignored.
func unlane(w uint64) RGB { return RGB{R: byte(w), G: byte(w >> 8), B: byte(w >> 16)} }
