package core

import (
	"context"
	"testing"

	"repro/internal/bipart"
	"repro/internal/collection"
	"repro/internal/newick"
	"repro/internal/obs"
	"repro/internal/tree"
)

// The core metrics live in the shared obs.Default registry, so tests
// assert deltas rather than absolute values.

func mustParse(t *testing.T, s string) *tree.Tree {
	t.Helper()
	tr, err := newick.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuildAndQueryMetrics(t *testing.T) {
	trees := []*tree.Tree{
		mustParse(t, "((A,B),(C,D));"),
		mustParse(t, "((A,C),(B,D));"),
		mustParse(t, "((A,B),(C,D));"),
	}
	refsBefore := mRefTrees.Value()
	bipsBefore := mBipartitionsHashed.Value()
	queriesBefore := mQueries.Value()
	lookupsBefore := mHashLookups.Value()
	missesBefore := mHashMisses.Value()
	buildsBefore := obs.Histogram(obs.StageMetric, "", nil, obs.L("stage", SpanBuild)).Count()
	queriesSpanBefore := obs.Histogram(obs.StageMetric, "", nil, obs.L("stage", SpanQuery)).Count()

	h := buildHash(t, trees, abcd)

	if got := mRefTrees.Value() - refsBefore; got != 3 {
		t.Errorf("ref trees delta = %d, want 3", got)
	}
	// Each 4-taxon binary tree has one non-trivial bipartition.
	if got := mBipartitionsHashed.Value() - bipsBefore; got != 3 {
		t.Errorf("bipartitions hashed delta = %d, want 3", got)
	}
	if got := obs.Histogram(obs.StageMetric, "", nil, obs.L("stage", SpanBuild)).Count() - buildsBefore; got != 1 {
		t.Errorf("build span count delta = %d, want 1", got)
	}

	// One query sharing AB|CD (a hit) and one all-miss topology would need
	// >4 taxa; on 4 taxa both topologies are in the hash, so query with one
	// of them and verify lookup accounting.
	queries := []*tree.Tree{mustParse(t, "((A,B),(C,D));"), mustParse(t, "((A,D),(B,C));")}
	if _, err := h.AverageRF(collection.FromTrees(queries), QueryOptions{RequireComplete: true}); err != nil {
		t.Fatal(err)
	}
	if got := mQueries.Value() - queriesBefore; got != 2 {
		t.Errorf("queries delta = %d, want 2", got)
	}
	if got := mHashLookups.Value() - lookupsBefore; got != 2 {
		t.Errorf("lookups delta = %d, want 2", got)
	}
	// AD|BC never appears in the reference trees: exactly one miss.
	if got := mHashMisses.Value() - missesBefore; got != 1 {
		t.Errorf("misses delta = %d, want 1", got)
	}
	if got := obs.Histogram(obs.StageMetric, "", nil, obs.L("stage", SpanQuery)).Count() - queriesSpanBefore; got != 1 {
		t.Errorf("query span count delta = %d, want 1", got)
	}
}

// TestBuildSpanJoinsCallerTrace: Build and BuildSplits start their
// bfh.build span under the span in BuildOptions.Context, so a build run
// on behalf of a traced caller lands in the caller's trace.
func TestBuildSpanJoinsCallerTrace(t *testing.T) {
	trees, ts := randomCollection(5, 12, 8)
	ex := &bipart.Extractor{Taxa: ts, RequireComplete: true}
	var sets [][]bipart.Bipartition
	for _, tr := range trees {
		bs, err := ex.Extract(tr)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, bs)
	}
	for _, tc := range []struct {
		name  string
		build func(opts BuildOptions) error
	}{
		{"Build", func(opts BuildOptions) error {
			_, err := Build(collection.FromTrees(trees), ts, opts)
			return err
		}},
		{"BuildSplits", func(opts BuildOptions) error {
			_, err := BuildSplits(sets, ts, opts)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := obs.NewTracer(8)
			tr.SetSampleRate(1)
			prev := obs.SetCurrentTracer(tr)
			defer obs.SetCurrentTracer(prev)
			ctx, root := obs.StartSpan(context.Background(), "test.caller")
			err := tc.build(BuildOptions{RequireComplete: true, Context: ctx})
			root.End()
			if err != nil {
				t.Fatal(err)
			}
			traces := tr.Snapshot(0)
			if len(traces) != 1 || traces[0].Root != "test.caller" {
				var roots []string
				for _, trc := range traces {
					roots = append(roots, trc.Root)
				}
				t.Fatalf("traces rooted at %q, want one rooted at test.caller", roots)
			}
			byName := make(map[string][]obs.SpanRecord)
			for _, sp := range traces[0].Spans {
				byName[sp.Name] = append(byName[sp.Name], sp)
			}
			if len(byName[SpanBuild]) != 1 || len(byName["test.caller"]) != 1 {
				t.Fatalf("trace holds %d %s and %d test.caller spans, want 1 each",
					len(byName[SpanBuild]), SpanBuild, len(byName["test.caller"]))
			}
			if got, want := byName[SpanBuild][0].ParentID, byName["test.caller"][0].SpanID; got != want {
				t.Errorf("%s parent = %s, want the caller's span %s", SpanBuild, got, want)
			}
		})
	}
}

// TestHashTableMetrics checks the open-addressing health metrics sampled
// once per build: the probe-length histogram grows by one observation per
// occupied slot and the load-factor gauge lands in (0, 0.75].
func TestHashTableMetrics(t *testing.T) {
	trees, ts := randomCollection(41, 24, 50)
	probesBefore := mHashProbeLength.Count()

	h, err := Build(collection.FromTrees(trees), ts, BuildOptions{RequireComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	if h.Backend() != BackendOpenAddressing {
		t.Fatalf("default backend = %v", h.Backend())
	}
	// Every unique bipartition occupies a slot; each contributes one
	// probe-length observation.
	if got := mHashProbeLength.Count() - probesBefore; got != uint64(h.UniqueBipartitions()) {
		t.Errorf("probe-length observations delta = %d, want %d", got, h.UniqueBipartitions())
	}
	if lf := mHashLoadFactor.Value(); lf <= 0 || lf > 0.75 {
		t.Errorf("load factor gauge = %g, want in (0, 0.75]", lf)
	}

	// A succinct build observes its own probe-length histogram, not the
	// open-addressing one, and still sets the load-factor gauge.
	probesBefore = mHashProbeLength.Count()
	succBefore := mSuccinctProbeLength.Count()
	hs, err := Build(collection.FromTrees(trees), ts, BuildOptions{RequireComplete: true, Backend: BackendSuccinct})
	if err != nil {
		t.Fatal(err)
	}
	if got := mHashProbeLength.Count() - probesBefore; got != 0 {
		t.Errorf("succinct build observed %d open-addressing probe lengths, want 0", got)
	}
	if got := mSuccinctProbeLength.Count() - succBefore; got != uint64(hs.UniqueBipartitions()) {
		t.Errorf("succinct probe-length observations delta = %d, want %d", got, hs.UniqueBipartitions())
	}
	if lf := mHashLoadFactor.Value(); lf <= 0 || lf > 0.75 {
		t.Errorf("load factor gauge after succinct build = %g, want in (0, 0.75]", lf)
	}
}

func TestAddTreeMetrics(t *testing.T) {
	trees := []*tree.Tree{mustParse(t, "((A,B),(C,D));")}
	h := buildHash(t, trees, abcd)
	refsBefore := mRefTrees.Value()
	bipsBefore := mBipartitionsHashed.Value()
	if err := h.AddTree(mustParse(t, "((A,C),(B,D));"), nil, true); err != nil {
		t.Fatal(err)
	}
	if got := mRefTrees.Value() - refsBefore; got != 1 {
		t.Errorf("ref trees delta = %d, want 1", got)
	}
	if got := mBipartitionsHashed.Value() - bipsBefore; got != 1 {
		t.Errorf("bipartitions delta = %d, want 1", got)
	}
	if got := mUniqueBipartitions.Value(); got != 2 {
		t.Errorf("unique gauge = %g, want 2", got)
	}
}
