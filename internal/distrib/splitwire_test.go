package distrib

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"net"
	"net/rpc"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/bipart"
	"repro/internal/bitset"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/newick"
	"repro/internal/simphy"
	"repro/internal/taxa"
	"repro/internal/tree"
)

// splitWireCase is one reference collection of the equivalence wall:
// refs, a query stream mixing references, fresh trees and repeats, and
// the single-node answers to it.
type splitWireCase struct {
	n       int
	ts      *taxa.Set
	refs    []*tree.Tree
	queries []*tree.Tree
}

func newSplitWireCase(n int) splitWireCase {
	refs, ts := testCollection(int64(100+n), n, 23)
	rng := rand.New(rand.NewSource(int64(200 + n)))
	queries := append([]*tree.Tree{}, refs[:6]...)
	for i := 0; i < 6; i++ {
		queries = append(queries, simphy.RandomBinary(ts, rng))
	}
	queries = append(queries, queries[:4]...)
	queries = append(queries, queries[7:9]...)
	return splitWireCase{n: n, ts: ts, refs: refs, queries: queries}
}

// want is FreqHash.AverageRF over the same references on backend b.
func (c splitWireCase) want(t *testing.T, b core.Backend) []core.Result {
	t.Helper()
	local, err := core.Build(collection.FromTrees(c.refs), c.ts, core.BuildOptions{RequireComplete: true, Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.AverageRF(collection.FromTrees(c.queries), core.QueryOptions{RequireComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// sameBits fails unless got matches want bit for bit.
func sameBits(t *testing.T, name string, got, want []core.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index || got[i].AvgRF != want[i].AvgRF {
			t.Errorf("%s: result %d = (%d, %v), local (%d, %v)",
				name, i, got[i].Index, got[i].AvgRF, want[i].Index, want[i].AvgRF)
		}
	}
}

// TestSplitWireMatchesLocal is the equivalence wall of the split-word
// wire: plain distributed answers must equal the single-node
// FreqHash.AverageRF bit for bit, across worker counts, both table
// engines, one- two- and three-word masks, the coordinator cache on and
// off, a worker killed mid-run under failover, and a cluster restored
// from a worker-layout snapshot.
func TestSplitWireMatchesLocal(t *testing.T) {
	backends := []core.Backend{core.BackendOpenAddressing, core.BackendSuccinct}
	for _, n := range []int{12, 100, 130} {
		c := newSplitWireCase(n)
		for _, b := range backends {
			want := c.want(t, b)
			for _, k := range []int{1, 2, 3} {
				for _, cached := range []bool{false, true} {
					coord, err := Dial(startWorkers(t, k))
					if err != nil {
						t.Fatal(err)
					}
					coord.ChunkSize = 4
					coord.BatchSize = 5
					coord.Backend = b
					if cached {
						coord.Cache = core.NewQueryCache(0, 0)
					}
					if err := coord.Load(collection.FromTrees(c.refs), c.ts, false); err != nil {
						t.Fatal(err)
					}
					got, err := coord.AverageRFContext(context.Background(), collection.FromTrees(c.queries))
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, fmt.Sprintf("n=%d %s k=%d cache=%v", n, b, k, cached), got.Results, want)
					coord.Close()
				}
			}

			t.Run(fmt.Sprintf("failover/n=%d/%s", n, b), func(t *testing.T) {
				kw := startKillableWorker(t)
				coord, err := Dial([]string{kw.addr(), startWorkers(t, 1)[0]})
				if err != nil {
					t.Fatal(err)
				}
				defer coord.Close()
				coord.ChunkSize = 4
				coord.BatchSize = 3
				coord.Backend = b
				if err := coord.Load(collection.FromTrees(c.refs), c.ts, false); err != nil {
					t.Fatal(err)
				}
				// Kill the worker once the first batch has folded: every
				// later batch needs its shard re-homed from the checkpoint.
				var out *Outcome
				err = runWithTimeout(t, "AverageRF with a worker killed mid-run", func() error {
					var err error
					out, err = coord.AverageRFOpts(context.Background(), collection.FromTrees(c.queries),
						QueryRunOptions{OnResult: func(core.Result) { kw.kill() }})
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				if out.Failovers != 1 || out.Coverage != 1 {
					t.Errorf("failovers = %d, coverage = %v; want 1 failover at full coverage", out.Failovers, out.Coverage)
				}
				sameBits(t, "failover", out.Results, want)
			})

			t.Run(fmt.Sprintf("snapshot/n=%d/%s", n, b), func(t *testing.T) {
				src, err := Dial(startWorkers(t, 2))
				if err != nil {
					t.Fatal(err)
				}
				defer src.Close()
				src.ChunkSize = 4
				src.Backend = b
				if err := src.Load(collection.FromTrees(c.refs), c.ts, false); err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				if _, err := src.SaveSnapshotsContext(context.Background(), dir); err != nil {
					t.Fatal(err)
				}
				// One worker takes both parts (the second merged in by
				// Adopt); two take one each; of three, the third starts
				// as an empty shard.
				for _, k := range []int{1, 2, 3} {
					coord, err := Dial(startWorkers(t, k))
					if err != nil {
						t.Fatal(err)
					}
					if err := coord.LoadSnapshotContext(context.Background(), dir); err != nil {
						t.Fatal(err)
					}
					got, err := coord.AverageRFContext(context.Background(), collection.FromTrees(c.queries))
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, fmt.Sprintf("restored onto k=%d", k), got.Results, want)
					coord.Close()
				}
			})
		}
	}
}

// TestSplitWireConcurrentQueries: concurrent runs on one coordinator
// share its pooled run scratch and each worker's pooled split views;
// every run must still get the single-node answers.
func TestSplitWireConcurrentQueries(t *testing.T) {
	c := newSplitWireCase(100)
	want := c.want(t, core.BackendOpenAddressing)
	coord, err := Dial(startWorkers(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.ChunkSize = 4
	coord.BatchSize = 5
	if err := coord.Load(collection.FromTrees(c.refs), c.ts, false); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got, err := coord.AverageRFContext(context.Background(), collection.FromTrees(c.queries))
				if err != nil {
					t.Error(err)
					return
				}
				for j := range want {
					if got.Results[j] != want[j] {
						t.Errorf("concurrent run: result %d = %v, local %v", j, got.Results[j], want[j])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// legacyWorker stands in for a worker built before wire versioning: it
// takes any Init and echoes protocol 0 on every Query, as a worker that
// does not know the field would.
type legacyWorker struct{ *Worker }

func (l legacyWorker) Init(args InitArgs, reply *LoadReply) error {
	args.Protocol = Protocol
	return l.Worker.Init(args, reply)
}

func (l legacyWorker) Query(args QueryArgs, reply *QueryReply) error {
	err := l.Worker.Query(args, reply)
	reply.Protocol = 0
	return err
}

// serveRPC serves rcvr under the worker's service name on a loopback
// listener closed at cleanup.
func serveRPC(t *testing.T, rcvr any) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	srv := rpc.NewServer()
	if err := srv.RegisterName("BFHRF", rcvr); err != nil {
		t.Fatal(err)
	}
	go srv.Accept(l)
	return l.Addr().String()
}

// TestProtocolMismatchRefused: a worker that answers with another wire
// version fails both Load and LoadSnapshotContext, and the error names
// it — it never gets to answer a query with zero splits.
func TestProtocolMismatchRefused(t *testing.T) {
	trees, ts := testCollection(71, 12, 16)
	check := func(err error, legacy string) {
		t.Helper()
		if err == nil {
			t.Fatal("a protocol-0 worker was accepted")
		}
		if !strings.Contains(err.Error(), legacy) || !strings.Contains(err.Error(), "protocol 0") {
			t.Errorf("error %q does not name worker %s and its protocol", err, legacy)
		}
	}

	legacy := serveRPC(t, legacyWorker{&Worker{}})
	coord, err := Dial([]string{startWorkers(t, 1)[0], legacy})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	check(coord.Load(collection.FromTrees(trees), ts, false), legacy)

	src, err := Dial(startWorkers(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.ChunkSize = 8 // one part per worker
	if err := src.Load(collection.FromTrees(trees), ts, false); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := src.SaveSnapshotsContext(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	legacy2 := serveRPC(t, legacyWorker{&Worker{}})
	coord2, err := Dial([]string{startWorkers(t, 1)[0], legacy2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	check(coord2.LoadSnapshotContext(context.Background(), dir), legacy2)
}

// wellFormed is the fuzz oracle for the query wire, written apart from
// decodeSplits and bipart.WordsView: offsets never decrease, stay inside
// words, cut whole ⌈n/64⌉-word splits and cover every word, and each
// split has taxon 0 on its 0 side, no bit at or beyond n, and between 2
// and n−2 taxa on its 1 side.
func wellFormed(words []uint64, ends []int, n int) bool {
	nw := (n + 63) / 64
	prev := 0
	for _, e := range ends {
		if e < prev || e > len(words) {
			return false
		}
		if nw == 0 && e != prev || nw > 0 && (e-prev)%nw != 0 {
			return false
		}
		prev = e
	}
	if prev != len(words) {
		return false
	}
	for i := 0; i < len(words); i += nw {
		c := 0
		for j, w := range words[i : i+nw] {
			for b := 0; b < 64; b++ {
				if w>>b&1 == 0 {
					continue
				}
				if pos := j*64 + b; pos == 0 || pos >= n {
					return false
				}
			}
			c += bits.OnesCount64(w)
		}
		if c < 2 || c > n-2 {
			return false
		}
	}
	return true
}

// fuzzWorker returns a worker over an n-taxon catalogue holding a small
// reference shard (none below 4 taxa, where no tree has a split).
func fuzzWorker(t testing.TB, n int) *Worker {
	ts := taxa.Generate(n)
	w := &Worker{}
	var lr LoadReply
	if err := w.Init(InitArgs{TaxaNames: ts.Names(), Protocol: Protocol}, &lr); err != nil {
		t.Fatal(err)
	}
	if n < 4 {
		return w
	}
	rng := rand.New(rand.NewSource(int64(n)))
	ex := bipart.NewExtractor(ts)
	args := LoadArgs{Seq: 1}
	for i := 0; i < 6; i++ {
		args.add(ex.MustExtract(simphy.RandomBinary(ts, rng)))
	}
	if err := w.Load(args, &lr); err != nil {
		t.Fatal(err)
	}
	return w
}

// encodeWire packs a batch for the fuzzer: 8 little-endian bytes per
// word, 2 per end offset (signed, so negative offsets are reachable).
func encodeWire(words []uint64, ends []int) ([]byte, []byte) {
	wb := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(wb[8*i:], w)
	}
	eb := make([]byte, 2*len(ends))
	for i, e := range ends {
		binary.LittleEndian.PutUint16(eb[2*i:], uint16(int16(e)))
	}
	return wb, eb
}

// FuzzWorkerQueryWords drives Worker.Query with arbitrary words, end
// offsets and catalogue widths. The worker must never panic, must refuse
// exactly the batches wellFormed rejects, and must answer every accepted
// batch with the hits Prober.Hits gives on the same splits.
func FuzzWorkerQueryWords(f *testing.F) {
	for _, n := range []int{12, 100, 130} {
		trees, ts := testCollection(int64(n), n, 3)
		ex := bipart.NewExtractor(ts)
		var q QueryArgs
		for _, tr := range trees {
			q.add(ex.MustExtract(tr))
		}
		wb, eb := encodeWire(q.Words, q.Ends)
		f.Add(uint8(n), wb, eb)
	}
	f.Add(uint8(0), []byte{}, []byte{0, 0})
	f.Add(uint8(5), []byte{6, 0, 0, 0, 0, 0, 0, 0}, []byte{1, 0})

	workers := make(map[int]*Worker)
	f.Fuzz(func(t *testing.T, width uint8, wb, eb []byte) {
		n := int(width) % 141
		w, ok := workers[n]
		if !ok {
			w = fuzzWorker(t, n)
			workers[n] = w
		}
		words := make([]uint64, len(wb)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(wb[8*i:])
		}
		ends := make([]int, len(eb)/2)
		for i := range ends {
			ends[i] = int(int16(binary.LittleEndian.Uint16(eb[2*i:])))
		}

		var reply QueryReply
		err := w.Query(QueryArgs{Words: words, Ends: ends}, &reply)
		if valid := wellFormed(words, ends, n); valid != (err == nil) {
			t.Fatalf("n=%d words=%x ends=%v: well-formed %v, worker error %v", n, words, ends, valid, err)
		}
		if err != nil {
			return
		}
		if len(reply.Hits) != len(ends) || reply.Protocol != Protocol {
			t.Fatalf("reply has %d hits for %d queries, protocol %d", len(reply.Hits), len(ends), reply.Protocol)
		}
		nw := (n + 63) / 64
		prev := 0
		for i, e := range ends {
			var want int64
			if w.hash != nil {
				var bs []bipart.Bipartition
				for j := prev; j < e; j += nw {
					m, err := bitset.FromWords(words[j:j+nw], n)
					if err != nil {
						t.Fatal(err)
					}
					bs = append(bs, bipart.FromMask(m, 0))
				}
				want, _ = w.hash.NewProber().Hits(bs)
			}
			if reply.Hits[i] != want {
				t.Fatalf("n=%d query %d: worker hits %d, Prober.Hits %d", n, i, reply.Hits[i], want)
			}
			prev = e
		}
	})
}

// BenchmarkCoordinatorQuery8 times one serve-shaped request — 8 query
// trees over 100 taxa — scattered to 2 loopback workers holding 2,000
// references: coordinator extract, gob encode and transport, worker
// validate and probe, fold.
func BenchmarkCoordinatorQuery8(b *testing.B) {
	refs, ts := testCollection(5, 100, 2000)
	coord, err := Dial(startWorkers(b, 2))
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Load(collection.FromTrees(refs), ts, false); err != nil {
		b.Fatal(err)
	}
	queries := collection.FromTrees(refs[:8])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coord.AverageRFContext(context.Background(), queries); err != nil {
			b.Fatal(err)
		}
	}
}

// writeNewickFile writes trees as a plain-Newick file and opens it.
func writeNewickFile(t *testing.T, trees []*tree.Tree) *collection.File {
	t.Helper()
	var sb strings.Builder
	for _, tr := range trees {
		sb.WriteString(newick.String(tr, newick.DefaultWriteOptions()))
		sb.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "trees.nwk")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := collection.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	return src
}

// TestFileRunMatchesTreeRun: a coordinator that loads and queries from
// plain-Newick files, whose statements it reduces to splits with no tree
// built, answers bit for bit like one fed the same trees in memory; a
// file query with an unknown taxon is the caller's *InputError, at its
// index.
func TestFileRunMatchesTreeRun(t *testing.T) {
	c := newSplitWireCase(100)
	run := func(refs, queries collection.Source) (*Outcome, error) {
		coord, err := Dial(startWorkers(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		coord.ChunkSize = 4
		coord.BatchSize = 5
		if err := coord.Load(refs, c.ts, false); err != nil {
			t.Fatal(err)
		}
		return coord.AverageRFContext(context.Background(), queries)
	}
	want, err := run(collection.FromTrees(c.refs), collection.FromTrees(c.queries))
	if err != nil {
		t.Fatal(err)
	}
	got, err := run(writeNewickFile(t, c.refs), writeNewickFile(t, c.queries))
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "file run", got.Results, want.Results)
	if got.Coverage != 1 || got.Partial {
		t.Errorf("file run: coverage %v, partial %v", got.Coverage, got.Partial)
	}

	stranger, _ := testCollection(7, 101, 1) // a leaf the catalogue lacks
	queries := append(append([]*tree.Tree{}, c.queries[:3]...), stranger[0])
	_, err = run(writeNewickFile(t, c.refs), writeNewickFile(t, queries))
	var ie *InputError
	if !errors.As(err, &ie) || ie.Index != 3 {
		t.Fatalf("unknown-taxon file query: err = %v, want *InputError at index 3", err)
	}
}
