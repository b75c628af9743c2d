package bfhsnap

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/simphy"
	"repro/internal/taxa"
	"repro/internal/tree"
)

// testCollection generates a deterministic random collection.
func testCollection(seed int64, n, r int) ([]*tree.Tree, *taxa.Set) {
	ts := taxa.Generate(n)
	rng := rand.New(rand.NewSource(seed))
	trees := make([]*tree.Tree, r)
	for i := range trees {
		trees[i] = simphy.RandomBinary(ts, rng)
	}
	return trees, ts
}

func buildOn(t *testing.T, b core.Backend, trees []*tree.Tree, ts *taxa.Set, shards int) *core.FreqHash {
	t.Helper()
	h, err := core.Build(collection.FromTrees(trees), ts, core.BuildOptions{
		RequireComplete: true, Workers: 1, Backend: b, HashShards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// queryVector computes exact average-RF values for a fixed query set; two
// hashes over the same collection must agree bit for bit.
func queryVector(t *testing.T, h *core.FreqHash, ts *taxa.Set, seed int64, k int) []float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, k)
	for i := range out {
		q := simphy.RandomBinary(ts, rng)
		v, err := h.AverageRFOne(q, core.QueryOptions{RequireComplete: true})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

func sameVector(t *testing.T, got, want []float64, what string) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: query %d: %v vs %v (not bit-identical)", what, i, got[i], want[i])
		}
	}
}

var allBackends = []core.Backend{core.BackendOpenAddressing, core.BackendSuccinct}

func TestStreamRoundTrip(t *testing.T) {
	trees, ts := testCollection(1, 40, 60)
	for _, b := range allBackends {
		src := buildOn(t, b, trees, ts, 4)
		var buf bytes.Buffer
		n, err := WriteStream(&buf, src, 0, src.NumShards())
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("%v: reported %d bytes, wrote %d", b, n, buf.Len())
		}
		got, hdr, err := ReadStream(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if got.Backend() != b {
			t.Fatalf("loaded backend %v, want %v", got.Backend(), b)
		}
		if hdr.Trees != src.NumTrees() {
			t.Fatalf("%v: header trees %d, want %d", b, hdr.Trees, src.NumTrees())
		}
		if err := VerifyAgainst(got, src); err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		sameVector(t, queryVector(t, got, ts, 9, 8), queryVector(t, src, ts, 9, 8), b.String())
	}
}

func TestSaveLoadFile(t *testing.T) {
	trees, ts := testCollection(2, 70, 40) // 2-word keys
	dir := t.TempDir()
	for _, b := range allBackends {
		src := buildOn(t, b, trees, ts, 2)
		path := filepath.Join(dir, b.String()+".bfh")
		if _, err := SaveFile(path, src); err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		hdr, err := ReadHeaderFile(path)
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if hdr.Backend != b || hdr.Sum != src.TotalBipartitions() {
			t.Fatalf("%v: header %+v", b, hdr)
		}
		got, _, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if err := VerifyAgainst(got, src); err != nil {
			t.Fatalf("%v: %v", b, err)
		}
	}
}

func TestMultiPartLoad(t *testing.T) {
	trees, ts := testCollection(3, 30, 50)
	for _, b := range []core.Backend{core.BackendOpenAddressing, core.BackendSuccinct} {
		src := buildOn(t, b, trees, ts, 8)
		half := src.NumShards() / 2
		var p0, p1 bytes.Buffer
		if _, err := WriteStream(&p0, src, 0, half); err != nil {
			t.Fatal(err)
		}
		if _, err := WriteStream(&p1, src, half, src.NumShards()); err != nil {
			t.Fatal(err)
		}
		hdr, err := ReadHeader(bytes.NewReader(p0.Bytes()), int64(p0.Len()))
		if err != nil {
			t.Fatal(err)
		}
		l, err := NewLoader(hdr)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.ReadStream(bytes.NewReader(p0.Bytes()), int64(p0.Len())); err != nil {
			t.Fatal(err)
		}
		// Finishing with half the shards missing must fail loudly.
		if _, err := l.Finish(); err == nil {
			t.Fatalf("%v: Finish accepted a half-covered hash", b)
		}
		if err := l.ReadStream(bytes.NewReader(p1.Bytes()), int64(p1.Len())); err != nil {
			t.Fatal(err)
		}
		got, err := l.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyAgainst(got, src); err != nil {
			t.Fatalf("%v: %v", b, err)
		}
	}
}

func TestStreamRejectsCorruption(t *testing.T) {
	trees, ts := testCollection(4, 20, 30)
	src := buildOn(t, core.BackendOpenAddressing, trees, ts, 2)
	var buf bytes.Buffer
	if _, err := WriteStream(&buf, src, 0, src.NumShards()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xff
		if _, _, err := ReadStream(bytes.NewReader(bad), int64(len(bad))); err == nil {
			t.Fatal("accepted bad magic")
		}
	})
	t.Run("bit flips", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 50; i++ {
			bad := append([]byte(nil), good...)
			bad[len(Magic)+rng.Intn(len(bad)-len(Magic))] ^= 1 << uint(rng.Intn(8))
			if _, _, err := ReadStream(bytes.NewReader(bad), int64(len(bad))); err == nil {
				t.Fatalf("accepted corrupted stream (flip %d)", i)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for _, cut := range []int{1, 5, len(good) / 2, len(good) - 1} {
			bad := good[:len(good)-cut]
			if _, _, err := ReadStream(bytes.NewReader(bad), int64(len(bad))); err == nil {
				t.Fatalf("accepted stream truncated by %d", cut)
			}
		}
	})
}

func TestEpochStoreLifecycle(t *testing.T) {
	trees, ts := testCollection(6, 40, 50)
	src := buildOn(t, core.BackendOpenAddressing, trees, ts, 8)
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Pin(); err == nil {
		t.Fatal("Pin on an empty store succeeded")
	}
	n, err := s.SaveEpoch(src)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || s.Current() != 1 {
		t.Fatalf("first epoch is %d (current %d), want 1", n, s.Current())
	}
	e, err := s.Pin()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAgainst(e.Hash, src); err != nil {
		t.Fatal(err)
	}

	// Publish a second epoch while the first is pinned; compact must not
	// remove the pinned directory until release.
	if _, err := s.SaveEpoch(src); err != nil {
		t.Fatal(err)
	}
	if left := s.Compact(); left != 2 {
		t.Fatalf("compact with pinned epoch left %d dirs, want 2", left)
	}
	e.Release()
	if _, err := os.Stat(s.epochDir(1)); !os.IsNotExist(err) {
		t.Fatalf("epoch 1 not reaped after release: %v", err)
	}

	// Reopen: CURRENT still names epoch 2.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Current() != 2 {
		t.Fatalf("reopened store current = %d, want 2", s2.Current())
	}
	e2, err := s2.Pin()
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Release()
	if err := VerifyAgainst(e2.Hash, src); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRecoversCrashDebris(t *testing.T) {
	trees, ts := testCollection(7, 20, 20)
	src := buildOn(t, core.BackendOpenAddressing, trees, ts, 2)
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SaveEpoch(src); err != nil {
		t.Fatal(err)
	}

	// Simulate the two crash windows: a staging dir that never renamed,
	// and an epoch dir renamed but never named by CURRENT.
	if err := os.MkdirAll(filepath.Join(dir, tmpPrefix+"000009"), 0o755); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, epochName(9))
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(orphan, "junk"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Current() != 1 {
		t.Fatalf("current = %d, want 1", s2.Current())
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("unpublished epoch dir survived recovery")
	}
	if _, err := os.Stat(filepath.Join(dir, tmpPrefix+"000009")); !os.IsNotExist(err) {
		t.Fatal("stale staging dir survived recovery")
	}
	e, err := s2.Pin()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Release()
	if err := VerifyAgainst(e.Hash, src); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaEquivalence(t *testing.T) {
	const n, base, extra = 13, 120, 1
	trees, ts := testCollection(8, n, base+extra)
	for _, b := range allBackends {
		const shards = 256
		baseHash := buildOn(t, b, trees[:base], ts, shards)
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.SaveEpoch(baseHash); err != nil {
			t.Fatal(err)
		}

		res, err := s.Delta(trees[base:], nil, nil, true)
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if res.Epoch != 2 || res.Base != 1 {
			t.Fatalf("%v: delta published %+v", b, res)
		}
		if res.PartsLinked == 0 {
			t.Errorf("%v: small delta rewrote every part (%d written, %d linked)", b, res.PartsWritten, res.PartsLinked)
		}

		// The delta-merged epoch must match a from-scratch build of the
		// full collection bit for bit, including query results.
		scratch := buildOn(t, b, trees, ts, shards)
		e, err := s.Pin()
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyAgainst(e.Hash, scratch); err != nil {
			t.Fatalf("%v: delta vs scratch: %v", b, err)
		}
		sameVector(t, queryVector(t, e.Hash, ts, 11, 10), queryVector(t, scratch, ts, 11, 10), b.String())
		e.Release()

		// Retire the extra trees again: back to the base collection.
		res, err = s.Delta(nil, trees[base:], nil, true)
		if err != nil {
			t.Fatalf("%v retire: %v", b, err)
		}
		if res.Epoch != 3 {
			t.Fatalf("%v: retire published epoch %d", b, res.Epoch)
		}
		e, err = s.Pin()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := e.Hash.NumTrees(), base; got != want {
			t.Fatalf("%v: retired epoch has %d trees, want %d", b, got, want)
		}
		sameVector(t, queryVector(t, e.Hash, ts, 12, 6), queryVector(t, baseHash, ts, 12, 6), b.String()+" retire")
		fp, sum := e.Hash.Fingerprint(), e.Hash.TotalBipartitions()
		e.Release()

		// Retiring a tree that was never added fails before anything is
		// published, even alongside an add.
		stranger, _ := testCollection(9, n, 1)
		if _, err := s.Delta(trees[base:], stranger, nil, true); err == nil {
			t.Fatalf("%v: retiring a tree never added succeeded", b)
		}
		if got := s.Current(); got != 3 {
			t.Fatalf("%v: failed delta moved the store to epoch %d", b, got)
		}
		e, err = s.Pin()
		if err != nil {
			t.Fatal(err)
		}
		if e.Hash.Fingerprint() != fp || e.Hash.TotalBipartitions() != sum {
			t.Fatalf("%v: failed delta changed the current epoch's hash", b)
		}
		e.Release()
	}
}

// TestDeltaWithRandomLengthsIsExact: a delta that adds some trees and
// retires others, all with 17-digit random lengths, publishes an epoch
// that, compacted and reopened, equals a from-scratch build of the
// resulting collection: length sums and Weighted answers included, bit
// for bit, although the two summed the lengths in different orders.
func TestDeltaWithRandomLengthsIsExact(t *testing.T) {
	trees, ts := testCollection(31, 20, 90)
	rng := rand.New(rand.NewSource(32))
	for _, tr := range trees {
		tr.Postorder(func(nd *tree.Node) { nd.Length, nd.HasLength = rng.Float64(), true })
	}
	kept := append(append([]*tree.Tree{}, trees[:10]...), trees[40:]...)
	weighted := func(h *core.FreqHash) []core.Result {
		res, err := h.AverageRF(collection.FromTrees(trees[:20]), core.QueryOptions{Variant: core.Weighted, RequireComplete: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, b := range allBackends {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.SaveEpoch(buildOn(t, b, trees[:60], ts, 4)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Delta(trees[60:], trees[10:40], nil, true); err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		s.Compact()
		if s, err = Open(dir); err != nil {
			t.Fatal(err)
		}
		e, err := s.Pin()
		if err != nil {
			t.Fatal(err)
		}
		scratch := buildOn(t, b, kept, ts, 4)
		if err := VerifyAgainst(e.Hash, scratch); err != nil {
			t.Fatalf("%v: delta vs scratch: %v", b, err)
		}
		got, want := weighted(e.Hash), weighted(scratch)
		for i := range want {
			if math.Float64bits(got[i].AvgRF) != math.Float64bits(want[i].AvgRF) {
				t.Fatalf("%v: query %d = %v, scratch build %v", b, i, got[i].AvgRF, want[i].AvgRF)
			}
		}
		e.Release()
	}
}
