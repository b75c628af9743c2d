package bfhsnap

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/core"
)

// Compatibility with snapshots written before the map backend was
// removed. testdata/parent holds three epoch stores built from
// testdata/parent/refs.nwk (12 taxa, 24 trees, one build worker, two
// table shards) by that earlier release: one open-addressing, one
// succinct, and one compressed-key map epoch. The table formats did not
// change, so the first two load unchanged — their MANIFESTs still carry
// the retired "compressed": false field — and the map epoch is refused
// with an error naming the removed backend.

// copyStore copies a committed epoch store into a scratch directory, so
// Open's crash recovery never touches testdata.
func copyStore(t *testing.T, name string) string {
	t.Helper()
	src := filepath.Join("testdata", "parent", name)
	dst := filepath.Join(t.TempDir(), name)
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// buildParentRefs rebuilds the committed epochs' hash from scratch with
// the settings they were written under.
func buildParentRefs(t *testing.T, b core.Backend) *core.FreqHash {
	t.Helper()
	src, err := collection.OpenFile(filepath.Join("testdata", "parent", "refs.nwk"))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ts, err := collection.ScanTaxa(src)
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.Build(src, ts, core.BuildOptions{RequireComplete: true, Workers: 1, Backend: b, HashShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestParentEpochsLoad(t *testing.T) {
	for _, b := range allBackends {
		dir := copyStore(t, b.String())
		man, err := os.ReadFile(filepath.Join(dir, "epoch-000001", manifestFile))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(man, []byte(`"compressed": false`)) {
			t.Fatalf("%v: fixture MANIFEST lacks the retired compressed field", b)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		e, err := s.Pin()
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		fresh := buildParentRefs(t, b)
		if e.Hash.Backend() != b {
			t.Fatalf("loaded backend %v, want %v", e.Hash.Backend(), b)
		}
		if err := VerifyAgainst(e.Hash, fresh); err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		sameVector(t, queryVector(t, e.Hash, fresh.Taxa(), 3, 8), queryVector(t, fresh, fresh.Taxa(), 3, 8), b.String())
		e.Release()

		// The section encoding is unchanged: a fresh save of the same
		// build writes byte-identical part files.
		out, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		n, err := out.SaveEpoch(fresh)
		if err != nil {
			t.Fatal(err)
		}
		m, err := out.Manifest(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range m.Parts {
			got, err := os.ReadFile(out.PartPath(n, p))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(dir, "epoch-000001", p.File))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%v: %s differs from the committed part file", b, p.File)
			}
		}
	}
}

func TestParentMapEpochRejected(t *testing.T) {
	dir := copyStore(t, "map")
	pinRejectsMap(t, dir)
	part := filepath.Join(dir, "epoch-000001", "part-0000.bfh")
	if _, _, err := LoadFile(part); err == nil || !strings.Contains(err.Error(), "map") {
		t.Fatalf("LoadFile of a map-backend part: %v, want an error naming the map backend", err)
	}
}

// retiredStream is one well-framed stream carrying a retired map-backend
// encoding.
type retiredStream struct {
	name string
	data []byte
}

// retiredMapStreams frames each retired map-backend encoding into an
// otherwise valid stream (correct CRCs and digest): backend code 0,
// header flag bit 1, both at once (the compressed-map header), and a
// section of kind 5 — the map entry stream, which follows the header in
// every case — after a valid open-addressing header.
func retiredMapStreams(tb testing.TB) []retiredStream {
	trees, ts := testCollection(21, 40, 12)
	h, err := core.Build(collection.FromTrees(trees), ts, core.BuildOptions{
		RequireComplete: true, Workers: 1, Backend: core.BackendOpenAddressing, HashShards: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	hp, err := encodeHeader(headerFor(h, 0, 1))
	if err != nil {
		tb.Fatal(err)
	}
	mapEntries := make([]byte, 8) // shard 0, zero entries
	frame := func(patch func(hdr []byte)) []byte {
		var buf bytes.Buffer
		sw, err := newSectionWriter(&buf)
		if err != nil {
			tb.Fatal(err)
		}
		p := append([]byte(nil), hp...)
		patch(p)
		if err := sw.section(secHeader, p); err != nil {
			tb.Fatal(err)
		}
		if err := sw.section(retiredMapSection, mapEntries); err != nil {
			tb.Fatal(err)
		}
		if err := sw.footer(); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	return []retiredStream{
		{"backend code 0", frame(func(p []byte) { p[2] = retiredMapCode })},
		{"flag bit 1", frame(func(p []byte) { p[3] |= retiredMapFlag })},
		{"compressed map header", frame(func(p []byte) { p[2] = retiredMapCode; p[3] |= retiredMapFlag })},
		{"section kind 5", frame(func([]byte) {})},
	}
}

func TestRetiredMapEncodingsRejected(t *testing.T) {
	for _, rs := range retiredMapStreams(t) {
		_, _, err := ReadStream(bytes.NewReader(rs.data), int64(len(rs.data)))
		if err == nil || !strings.Contains(err.Error(), "map") {
			t.Errorf("%s: %v, want an error naming the map backend", rs.name, err)
		}
	}
	// A MANIFEST naming the map backend is refused even when its parts
	// are readable.
	dir := copyStore(t, "openaddr")
	mp := filepath.Join(dir, "epoch-000001", manifestFile)
	man, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	man = bytes.Replace(man, []byte(`"backend": "openaddr"`), []byte(`"backend": "map"`), 1)
	if err := os.WriteFile(mp, man, 0o644); err != nil {
		t.Fatal(err)
	}
	pinRejectsMap(t, dir)
}

// pinRejectsMap opens the store at dir and checks that pinning its
// current epoch fails with an error naming the map backend.
func pinRejectsMap(t *testing.T, dir string) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if e, err := s.Pin(); err == nil || !strings.Contains(err.Error(), "map") {
		if e != nil {
			e.Release()
		}
		t.Fatalf("Pin of a map-backend epoch: %v, want an error naming the map backend", err)
	}
}
