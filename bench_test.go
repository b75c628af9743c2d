package repro

// One benchmark per table and figure of the paper's evaluation section.
// Each bench runs the corresponding experiment's engines on a scaled-down
// version of the same dataset (full-scale regeneration is cmd/rfbench's
// job; see EXPERIMENTS.md for the measured tables). Sub-benchmark names
// follow the paper's engine labels, so
//
//	go test -bench=Fig1 -benchmem
//
// prints the Fig. 1 series: DS and DSMP slowest, HashRF fast at small r,
// BFHRF fastest with the flattest memory.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bipart"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/day"
	"repro/internal/hashrf"
	"repro/internal/newick"
	"repro/internal/seqrf"
	"repro/internal/simphy"
	"repro/internal/taxa"
	"repro/internal/tree"
)

// ---- shared dataset cache ------------------------------------------------

type benchData struct {
	trees []*tree.Tree
	taxa  *taxa.Set
}

var (
	benchMu    sync.Mutex
	benchCache = map[string]benchData{}
)

// load materializes the first r trees of spec once per process.
func load(b *testing.B, spec dataset.Spec, r int) benchData {
	b.Helper()
	key := fmt.Sprintf("%s/%d", spec.Name, r)
	benchMu.Lock()
	defer benchMu.Unlock()
	if d, ok := benchCache[key]; ok {
		return d
	}
	trees, ts, err := spec.Prefix(r)
	if err != nil {
		b.Fatal(err)
	}
	d := benchData{trees: trees, taxa: ts}
	benchCache[key] = d
	return d
}

type engineSpec struct {
	name    string
	workers int
	kind    string // "seq", "hashrf", "bfhrf"
}

var paperEngines = []engineSpec{
	{"DS", 1, "seq"},
	{"DSMP8", 8, "seq"},
	{"DSMP16", 16, "seq"},
	{"HashRF", 1, "hashrf"},
	{"BFHRF8", 8, "bfhrf"},
	{"BFHRF16", 16, "bfhrf"},
}

// runEngine executes one full Q=R average-RF computation, the measured
// operation of every experiment in the paper.
func runEngine(b *testing.B, e engineSpec, d benchData, acceptUnweighted bool) {
	b.Helper()
	src := collection.FromTrees(d.trees)
	switch e.kind {
	case "seq":
		if _, err := seqrf.AverageRF(src, src, seqrf.Options{Taxa: d.taxa, Workers: e.workers}); err != nil {
			b.Fatal(err)
		}
	case "hashrf":
		if _, err := hashrf.AverageRF(src, hashrf.Options{Taxa: d.taxa, AcceptUnweighted: acceptUnweighted}); err != nil {
			b.Fatal(err)
		}
	case "bfhrf":
		h, err := core.Build(src, d.taxa, core.BuildOptions{Workers: e.workers, RequireComplete: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.AverageRF(src, core.QueryOptions{Workers: e.workers, RequireComplete: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSweep(b *testing.B, spec dataset.Spec, rs []int, acceptUnweighted bool) {
	b.Helper()
	for _, e := range paperEngines {
		for _, r := range rs {
			// The quadratic baselines get smaller points so the whole suite
			// stays fast; the series shape is still visible.
			if e.kind == "seq" && r > 512 {
				continue
			}
			d := load(b, spec, r)
			b.Run(fmt.Sprintf("%s/r=%d", e.name, r), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					runEngine(b, e, d, acceptUnweighted)
				}
			})
		}
	}
}

// ---- Fig. 1: Avian (n=48) runtime and memory vs r -------------------------

func BenchmarkFig1_Avian(b *testing.B) {
	benchSweep(b, dataset.Avian(), []int{128, 512, 1024}, false)
}

// ---- Table III: Insect (n=144, unweighted) --------------------------------

func BenchmarkTableIII_Insect(b *testing.B) {
	// HashRF refuses unweighted input exactly as the paper reports; the
	// bench reproduces that by accepting the error for the HashRF engine.
	spec := dataset.Insect()
	rs := []int{128, 512}
	for _, e := range paperEngines {
		for _, r := range rs {
			if e.kind == "seq" && r > 512 {
				continue
			}
			d := load(b, spec, r)
			b.Run(fmt.Sprintf("%s/r=%d", e.name, r), func(b *testing.B) {
				if e.kind == "hashrf" {
					src := collection.FromTrees(d.trees)
					if _, err := hashrf.AverageRF(src, hashrf.Options{Taxa: d.taxa}); err == nil {
						b.Fatal("HashRF must refuse the unweighted Insect data (paper §VI.B)")
					}
					b.Skip("HashRF cannot read unweighted data — '-' in the paper's Table III")
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					runEngine(b, e, d, true)
				}
			})
		}
	}
}

// ---- Table IV: variable taxa (r=1000) --------------------------------------

func BenchmarkTableIV_VarTaxa(b *testing.B) {
	for _, n := range []int{100, 250, 500} {
		spec := dataset.VariableTaxa(n)
		for _, e := range paperEngines {
			r := 128
			d := load(b, spec, r)
			b.Run(fmt.Sprintf("%s/n=%d", e.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					runEngine(b, e, d, false)
				}
			})
		}
	}
}

// ---- Table V / Fig. 2: variable trees (n=100) ------------------------------

func BenchmarkTableV_Fig2_VarTrees(b *testing.B) {
	benchSweep(b, dataset.VariableTrees(100000), []int{256, 1024, 2048}, false)
}

// ---- Table I: complexity — growth of the two BFHRF phases -----------------

func BenchmarkTableI_BFHRFBuild(b *testing.B) {
	// The hash build phase is O(n²r): time per tree should be flat in r.
	for _, r := range []int{256, 1024, 4096} {
		d := load(b, dataset.VariableTrees(100000), r)
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(collection.FromTrees(d.trees), d.taxa,
					core.BuildOptions{RequireComplete: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTableI_BFHRFQuery(b *testing.B) {
	// One tree-vs-hash comparison is O(n²), independent of r.
	for _, r := range []int{256, 1024, 4096} {
		d := load(b, dataset.VariableTrees(100000), r)
		h, err := core.Build(collection.FromTrees(d.trees), d.taxa,
			core.BuildOptions{RequireComplete: true})
		if err != nil {
			b.Fatal(err)
		}
		q := d.trees[0]
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := h.AverageRFOne(q, core.QueryOptions{RequireComplete: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- §III.C accuracy: the consensus path off the hash ---------------------

func BenchmarkConsensusFromBFH(b *testing.B) {
	d := load(b, dataset.Avian(), 512)
	h, err := core.Build(collection.FromTrees(d.trees), d.taxa, core.BuildOptions{RequireComplete: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Consensus(0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- ablations: the design choices DESIGN.md calls out --------------------

func BenchmarkAblation_KeyCompression(b *testing.B) {
	// §IX: raw (open-addressing) vs compressed (succinct) keys.
	// Compression trades per-split encode CPU for smaller key storage; the
	// win grows with n.
	for _, n := range []int{100, 500} {
		d := load(b, dataset.VariableTaxa(n), 128)
		for _, kc := range []struct {
			label   string
			backend core.Backend
		}{{"raw", core.BackendOpenAddressing}, {"compressed", core.BackendSuccinct}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, kc.label), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					h, err := core.Build(collection.FromTrees(d.trees), d.taxa, core.BuildOptions{
						RequireComplete: true,
						Backend:         kc.backend,
					})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := h.AverageRF(collection.FromTrees(d.trees),
						core.QueryOptions{RequireComplete: true}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkAblation_Workers(b *testing.B) {
	// The paper's §VII.A observation: speedup from 8 to 16 cores is
	// sub-linear. Vary the worker count on a fixed workload.
	d := load(b, dataset.VariableTrees(100000), 2048)
	for _, w := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h, err := core.Build(collection.FromTrees(d.trees), d.taxa,
					core.BuildOptions{Workers: w, RequireComplete: true})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := h.AverageRF(collection.FromTrees(d.trees),
					core.QueryOptions{Workers: w, RequireComplete: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblation_DayVsBFHRF(b *testing.B) {
	// The optimal-pairwise engine (Day's O(n) per comparison) still does
	// q·r work; BFHRF's win over it isolates the tree-vs-hash idea itself.
	d := load(b, dataset.VariableTrees(100000), 128)
	src := collection.FromTrees(d.trees)
	b.Run("DayPairwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := day.AverageRF(src, src, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("BFHRF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h, err := core.Build(src, d.taxa, core.BuildOptions{Workers: 8, RequireComplete: true})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := h.AverageRF(src, core.QueryOptions{Workers: 8, RequireComplete: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- micro-benchmarks: the substrate costs behind Table I -----------------

func BenchmarkMicro_NewickParse(b *testing.B) {
	d := load(b, dataset.VariableTrees(100000), 8)
	s := newick.String(d.trees[0], newick.DefaultWriteOptions())
	b.ReportAllocs()
	b.SetBytes(int64(len(s)))
	for i := 0; i < b.N; i++ {
		if _, err := newick.Parse(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_BipartitionExtract(b *testing.B) {
	for _, n := range []int{100, 500, 1000} {
		spec := dataset.VariableTaxa(n)
		d := load(b, spec, 8)
		ex := bipart.NewExtractor(d.taxa)
		t := d.trees[0]
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Extract(t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMicro_DayRF(b *testing.B) {
	for _, n := range []int{100, 500, 1000} {
		spec := dataset.VariableTaxa(n)
		d := load(b, spec, 8)
		t1, t2 := d.trees[0], d.trees[1]
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := day.RF(t1, t2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMicro_MSCGeneTree(b *testing.B) {
	ts := taxa.Generate(100)
	msc := simphy.NewMSCCollection(ts, 1, 1.0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = msc.Make(i)
	}
}
