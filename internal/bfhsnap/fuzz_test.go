package bfhsnap

import (
	"bytes"
	"testing"

	"repro/internal/collection"
	"repro/internal/core"
)

// FuzzSnapshot throws arbitrary bytes at the snapshot decoder. The
// decoder must reject corruption with an error — never panic, never
// over-allocate past the stream's own size — and any stream it does
// accept must produce a structurally sound hash. The seed corpus holds a
// valid stream per backend plus truncations and bit flips of each, and a
// stream per retired map-backend encoding (see retiredMapStreams); the
// pinned corpus under testdata/fuzz adds a map-backend part file written
// before that backend was removed.
func FuzzSnapshot(f *testing.F) {
	trees, ts := testCollection(21, 40, 12)
	for _, b := range allBackends {
		h, err := core.Build(collection.FromTrees(trees), ts, core.BuildOptions{
			RequireComplete: true, Workers: 1, Backend: b, HashShards: 2,
		})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := WriteStream(&buf, h, 0, h.NumShards()); err != nil {
			f.Fatal(err)
		}
		good := buf.Bytes()
		f.Add(good)
		f.Add(good[:len(good)/2])
		f.Add(good[:len(Magic)+5])
		flipped := append([]byte(nil), good...)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
	}
	for _, rs := range retiredMapStreams(f) {
		f.Add(rs.data)
	}
	f.Add([]byte(Magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, hdr, err := ReadStream(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		// Accepted streams must be internally consistent.
		if hdr == nil || h == nil {
			t.Fatal("nil result without error")
		}
		if h.NumTrees() != hdr.Trees || h.TotalBipartitions() != hdr.Sum {
			t.Fatalf("loaded hash (%d trees, %d sum) disagrees with header (%d, %d)",
				h.NumTrees(), h.TotalBipartitions(), hdr.Trees, hdr.Sum)
		}
	})
}
