package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/collection"
	"repro/internal/dataset"
	"repro/internal/simphy"
	"repro/internal/taxa"
	"repro/internal/tree"
)

// Load shape shared by every workload: one process, build and query with
// two workers, at most two HTTP connections, distributed workers in this
// process on loopback TCP.
const (
	workers      = 2
	httpConns    = 2
	requestTrees = 8 // query trees per POST /v1/query
	nniMoves     = 2 // NNI moves per perturbed serve query tree
	collName     = "ref"
)

// workload is one input set and the way it is driven.
type workload struct {
	name string
	// serve selects the HTTP workloads; distributed puts a 2-worker
	// coordinator behind the service instead of a local pinned epoch.
	serve, distributed bool
	// taxa and trees size the reference collection. Batch workloads use
	// it as the query collection too (Q = R).
	taxa, trees int
	// request is the number of query trees per call of a batch
	// workload's latency phase: the serve request size at n=100; two at
	// n=4096, where a call of two trees is about 30 ms of work. Eight
	// would leave some thirty calls per run to take percentiles of, and a
	// single tree's latency was bimodal on a 2-vCPU host (about 10 or 17
	// ms), so its median swung by 37% between runs.
	request int
	// chunk is the number of trees per query file of a batch workload's
	// query_tps phase: the query collection is cut into files of about a
	// tenth of a second of work each, so that the phase can alternate with
	// the latency phase in slots across the whole run.
	chunk int
	// rate is the fixed offered load of a serve workload in requests/s;
	// limit is the p99 latency limit of its max_rps ladder.
	rate  float64
	limit time.Duration
}

// workloads are every workload the benchmark can run. BENCHMARK.json lists
// all but batch-n4096, whose figures spread beyond the bounds on the
// reference host (README.md, "Workloads").
var workloads = []workload{
	{name: "batch-n100", taxa: 100, trees: 20000, request: requestTrees, chunk: 1000},
	{name: "batch-n4096", taxa: 4096, trees: 200, request: workers, chunk: 20},
	{name: "serve-local", serve: true, taxa: 100, trees: 20000, rate: 300, limit: 20 * time.Millisecond},
	{name: "serve-distrib", serve: true, distributed: true, taxa: 100, trees: 20000, rate: 150, limit: 40 * time.Millisecond},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want batch-n100, batch-n4096, serve-local or serve-distrib)", name)
}

// scaled shrinks the workload for the self-test: same code paths and the
// same backends (n=4096 still selects the succinct table), seconds of work.
func (w workload) scaled(smoke bool) workload {
	if smoke {
		w.trees = min(w.trees, 300)
		w.chunk = min(w.chunk, 100)
		if w.taxa > 1000 {
			w.trees, w.chunk = 12, 4
		}
	}
	return w
}

// poolTrees is the number of distinct NNI-perturbed query trees the serve
// workloads cycle through (poolTrees/requestTrees distinct requests).
func poolTrees(smoke bool) int {
	if smoke {
		return 64
	}
	return 4096
}

// source is the workload's reference collection for a run seed. The
// species tree is the dataset's own (dataset.VariableTrees or
// dataset.HugeTaxa at its published seed); the run seed draws the gene
// trees from it. Drawing the species tree from the run seed too would
// make the seed pick the workload: across seeds the n=100 reference's
// distinct bipartitions range from 28k to 78k, and its table flips
// between 2.5 and 5 MiB, either side of the 4 MiB batched-probe threshold.
// With the species tree fixed they vary by about 1%.
func (w workload) source(seed int64) (collection.Source, *taxa.Set) {
	var s dataset.Spec
	if w.taxa > 1000 {
		s = dataset.HugeTaxa(w.taxa)
	} else {
		s = dataset.VariableTrees(w.trees)
	}
	ts := s.Taxa()
	msc := simphy.NewMSCCollection(ts, s.Seed, 1.0)
	simphy.ScaleMeanInternal(msc.Species, s.MeanInternalBranch)
	msc.Seed = seed
	return &collection.Generator{N: w.trees, Make: msc.Make}, ts
}

// querySet is the serve workloads' query pool: the first n reference
// trees, each moved nniMoves NNI steps away, as dataset.Spec.QuerySet
// derives its query collections.
func (w workload) querySet(seed int64, n int) ([]*tree.Tree, error) {
	src, _ := w.source(seed)
	rng := rand.New(rand.NewSource(seed * 7919))
	out := make([]*tree.Tree, 0, n)
	for i := 0; i < n; i++ {
		t, err := src.Next()
		if err != nil {
			return nil, fmt.Errorf("query base %d: %w", i, err)
		}
		out = append(out, simphy.PerturbNNI(t, nniMoves, rng))
	}
	return out, nil
}
