package distrib

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// TestTracedQueryStitchedAndIdentical is the end-to-end trace gate: a
// distributed query under an injected RPC delay must (a) return results
// byte-identical to an untraced run, (b) assemble ONE stitched trace —
// coordinator root, per-worker RPC spans, and the workers' remote spans
// all under a single trace ID — and (c) export that trace as valid JSONL.
func TestTracedQueryStitchedAndIdentical(t *testing.T) {
	trees, ts := testCollection(23, 16, 80)
	queries := trees[:12]

	// run loads a fresh 3-worker cluster and queries it; between is called
	// after Load so fault plans only see the query-path RPCs.
	run := func(between func()) []core.Result {
		t.Helper()
		addrs := startWorkers(t, 3)
		coord, err := Dial(addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		coord.ChunkSize = 13
		coord.BatchSize = 5
		if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
			t.Fatal(err)
		}
		if between != nil {
			between()
		}
		got, err := coord.AverageRFContext(context.Background(), collection.FromTrees(queries))
		if err != nil {
			t.Fatal(err)
		}
		return got.Results
	}

	render := func(rs []core.Result) string {
		var sb strings.Builder
		for _, r := range rs {
			fmt.Fprintf(&sb, "%d\t%g\n", r.Index, r.AvgRF)
		}
		return sb.String()
	}

	// Baseline: tracing disabled.
	prev := obs.SetCurrentTracer(obs.NewTracer(8))
	defer obs.SetCurrentTracer(prev)
	baseline := render(run(nil))

	// Traced run: keep everything, flag roots past 5ms as slow, and delay
	// every query RPC by 20ms so the slow path actually fires.
	tr := obs.NewTracer(64)
	tr.SetSampleRate(1)
	tr.SetSlowQuery(5 * time.Millisecond)
	exportPath := filepath.Join(t.TempDir(), "traces.jsonl")
	tr.SetExportPath(exportPath)
	obs.SetCurrentTracer(tr)
	defer faultinject.Disarm()

	traced := render(run(func() {
		faultinject.Arm(faultinject.Plan{
			Point: faultinject.PointRPCSend,
			Kind:  faultinject.KindDelay,
			Hit:   1,
			Times: -1,
			Delay: 20 * time.Millisecond,
		})
	}))
	faultinject.Disarm()

	if traced != baseline {
		t.Errorf("tracing changed the results:\ntraced:\n%s\nbaseline:\n%s", traced, baseline)
	}

	// Exactly one stitched trace: in a single process the workers' remote
	// roots publish partial traces too, so select by root name.
	var stitched *obs.Trace
	coordTraces := 0
	for _, tc := range tr.Snapshot(0) {
		if tc.Root == "coord.query" {
			coordTraces++
			stitched = tc
		}
	}
	if coordTraces != 1 {
		t.Fatalf("coord.query traces in the ring = %d, want 1", coordTraces)
	}
	if !stitched.Slow {
		t.Errorf("20ms injected delay did not mark the trace slow (duration %s)",
			time.Duration(stitched.DurationNanos))
	}

	spanIDs := make(map[string]bool)
	byName := make(map[string][]obs.SpanRecord)
	for _, s := range stitched.Spans {
		if s.TraceID != stitched.TraceID {
			t.Errorf("span %s carries trace %s, want %s", s.Name, s.TraceID, stitched.TraceID)
		}
		spanIDs[s.SpanID] = true
		byName[s.Name] = append(byName[s.Name], s)
	}
	for _, name := range []string{"coord.query", "coord.query.batch", "rpc.query", "worker.query"} {
		if len(byName[name]) == 0 {
			t.Errorf("stitched trace has no %s span; got %d spans", name, len(stitched.Spans))
		}
	}
	// 12 queries in batches of 5 → 3 batches × 3 workers of RPC fan-out.
	if got := len(byName["rpc.query"]); got != 9 {
		t.Errorf("rpc.query spans = %d, want 9 (3 batches × 3 workers)", got)
	}
	if got := len(byName["worker.query"]); got != 9 {
		t.Errorf("worker.query spans = %d, want 9 (one per RPC, stitched from replies)", got)
	}
	// Every worker-side root's parent is one of the coordinator's RPC
	// spans — the cross-process link the propagated context creates.
	rpcIDs := make(map[string]bool)
	for _, s := range byName["rpc.query"] {
		rpcIDs[s.SpanID] = true
	}
	for _, s := range byName["worker.query"] {
		if !rpcIDs[s.ParentID] {
			t.Errorf("worker.query span %s parent %s is not an rpc.query span", s.SpanID, s.ParentID)
		}
		if s.Attrs["queries"] == "" || s.Attrs["shard_trees"] == "" {
			t.Errorf("worker.query span lacks shard attributes: %v", s.Attrs)
		}
	}
	// With dropped spans zero, every parent link resolves inside the trace.
	if stitched.DroppedSpans != 0 {
		t.Errorf("dropped_spans = %d, want 0", stitched.DroppedSpans)
	}
	for _, s := range stitched.Spans {
		if s.ParentID != "" && !spanIDs[s.ParentID] {
			t.Errorf("span %s (%s): dangling parent %s", s.SpanID, s.Name, s.ParentID)
		}
	}

	// The JSONL export round-trips and contains the stitched trace.
	if err := tr.FlushExport(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(exportPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	found := false
	for sc.Scan() {
		var tc obs.Trace
		if err := json.Unmarshal(sc.Bytes(), &tc); err != nil {
			t.Fatalf("invalid JSONL line: %v", err)
		}
		if tc.TraceID == stitched.TraceID && tc.Root == "coord.query" {
			found = true
			if len(tc.Spans) != len(stitched.Spans) {
				t.Errorf("exported trace has %d spans, ring has %d", len(tc.Spans), len(stitched.Spans))
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Error("stitched trace missing from the JSONL export")
	}
}

// TestUntracedQueryPropagatesNothing: with the tracer disabled the RPC
// args must carry the zero trace context and replies no span payload —
// the wire cost of the trace layer is a few zero bytes per batch.
func TestUntracedQueryPropagatesNothing(t *testing.T) {
	trees, ts := testCollection(29, 12, 40)
	prev := obs.SetCurrentTracer(obs.NewTracer(8))
	defer obs.SetCurrentTracer(prev)

	addrs := startWorkers(t, 2)
	coord, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.AverageRFContext(context.Background(), collection.FromTrees(trees[:5])); err != nil {
		t.Fatal(err)
	}
	if got := obs.CurrentTracer().Snapshot(0); len(got) != 0 {
		t.Errorf("disabled tracer collected %d traces", len(got))
	}
}
