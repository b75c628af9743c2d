package bfhsnap

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/bfhtable"
	"repro/internal/bipart"
)

// Zero-copy views between the on-disk little-endian arrays and the
// in-memory slot arrays. On a little-endian host the two layouts are
// byte-identical, so a section payload read off disk is handed to the
// table as-is (provided the buffer landed 8-aligned, which the Go
// allocator gives every large allocation) and a writer aliases the table's
// arrays straight into the output stream. The decode-copy fallbacks keep
// the format portable to big-endian hosts.

// hostLittle reports the native byte order.
var hostLittle = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// aligned8 reports whether p's backing array starts on an 8-byte boundary.
func aligned8(p []byte) bool {
	return len(p) == 0 || uintptr(unsafe.Pointer(&p[0]))%8 == 0
}

// entrySize is the wire (and in-memory) size of one bfhtable.Entry.
const entrySize = 16

// u64sView interprets p (length 8n) as n little-endian uint64s, aliasing
// when the host layout matches.
func u64sView(p []byte) []uint64 {
	n := len(p) / 8
	if n == 0 {
		return nil
	}
	if hostLittle && aligned8(p) {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&p[0])), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(p[i*8:])
	}
	return out
}

// u32sView interprets p (length 4n) as n little-endian uint32s. Alignment
// of 4 suffices; every payload offset used for a u32 array is a multiple
// of 4 past an 8-aligned base.
func u32sView(p []byte) []uint32 {
	n := len(p) / 4
	if n == 0 {
		return nil
	}
	if hostLittle && uintptr(unsafe.Pointer(&p[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&p[0])), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(p[i*4:])
	}
	return out
}

// entriesView interprets p (length 16n) as n entries: freq u32, size u32,
// length sum i64 in quanta — exactly bfhtable.Entry's memory layout. A
// version-1 stream stored each sum as float64 bits instead; its entries
// are decoded into a copy with every sum snapped to quanta, the format's
// one decode shim.
func entriesView(p []byte, version int) ([]bfhtable.Entry, error) {
	n := len(p) / entrySize
	if n == 0 {
		return nil, nil
	}
	if version > 1 && hostLittle && aligned8(p) {
		return unsafe.Slice((*bfhtable.Entry)(unsafe.Pointer(&p[0])), n), nil
	}
	out := make([]bfhtable.Entry, n)
	for i := range out {
		q := p[i*entrySize:]
		sum := binary.LittleEndian.Uint64(q[8:])
		out[i] = bfhtable.Entry{Freq: binary.LittleEndian.Uint32(q[0:]), Size: binary.LittleEndian.Uint32(q[4:]), LengthSum: int64(sum)}
		if version == 1 {
			var err error
			if out[i].LengthSum, err = bipart.Quantize(math.Float64frombits(sum)); err != nil {
				return nil, fmt.Errorf("bfhsnap: version-1 length sum: %w", err)
			}
		}
	}
	return out, nil
}

func encodeEntry(p []byte, e bfhtable.Entry) {
	binary.LittleEndian.PutUint32(p[0:], e.Freq)
	binary.LittleEndian.PutUint32(p[4:], e.Size)
	binary.LittleEndian.PutUint64(p[8:], uint64(e.LengthSum))
}

// u64sBytes returns s's little-endian wire bytes, aliasing on a matching
// host and encoding into (a grown) scratch otherwise. The returned slice
// is valid until scratch's next use.
func u64sBytes(s []uint64, scratch []byte) ([]byte, []byte) {
	if len(s) == 0 {
		return nil, scratch
	}
	if hostLittle {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8), scratch
	}
	scratch = grow(scratch, len(s)*8)
	for i, v := range s {
		binary.LittleEndian.PutUint64(scratch[i*8:], v)
	}
	return scratch, scratch
}

// u32sBytes is u64sBytes for uint32 arrays.
func u32sBytes(s []uint32, scratch []byte) ([]byte, []byte) {
	if len(s) == 0 {
		return nil, scratch
	}
	if hostLittle {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4), scratch
	}
	scratch = grow(scratch, len(s)*4)
	for i, v := range s {
		binary.LittleEndian.PutUint32(scratch[i*4:], v)
	}
	return scratch, scratch
}

// entriesBytes is u64sBytes for entry arrays.
func entriesBytes(s []bfhtable.Entry, scratch []byte) ([]byte, []byte) {
	if len(s) == 0 {
		return nil, scratch
	}
	if hostLittle {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*entrySize), scratch
	}
	scratch = grow(scratch, len(s)*entrySize)
	for i, e := range s {
		encodeEntry(scratch[i*entrySize:], e)
	}
	return scratch, scratch
}

func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}
