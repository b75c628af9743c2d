package experiments

import (
	"fmt"
	"io"
	"runtime"

	"repro/internal/bipart"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/memprof"
	"repro/internal/tabfmt"
	"repro/internal/taxa"
)

// Ablation measures the design choices DESIGN.md calls out:
//
//   - §IX key compression: hash build time and memory with raw
//     (open-addressing) vs compressed (succinct) keys, at growing n
//     (compression wins more as bitmasks get wider);
//   - worker scaling: BFHRF build+query wall time at 1/2/4/8/16 workers,
//     quantifying the paper's observed diminishing 8→16 returns;
//   - streaming vs materialized input: the cost of the collection.Source
//     abstraction.
func (c *Config) Ablation() *Report {
	rep := &Report{ID: "Ablation_Design"}

	// --- key compression ---------------------------------------------------
	comp := tabfmt.New("§IX ablation — raw vs compressed hash keys",
		"n", "R", "Keys", "Build(m)", "PeakMem(MB)", "KeyBytes")
	rep.Tables = append(rep.Tables, comp)
	for _, n := range []int{100, 500, 1000} {
		spec := dataset.VariableTaxa(n)
		r := c.ScaleTrees(spec.NumTrees)
		path, ts, err := c.materialize(spec, r)
		if err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("ablation n=%d: %v", n, err))
			continue
		}
		// Raw keys are the open-addressing table's mask words; the
		// compressed ones are the succinct table's encoded arena keys.
		for _, kc := range []struct {
			label   string
			backend core.Backend
		}{{"raw", core.BackendOpenAddressing}, {"compressed", core.BackendSuccinct}} {
			src, err := collection.OpenFile(path)
			if err != nil {
				rep.Notes = append(rep.Notes, err.Error())
				continue
			}
			var h *core.FreqHash
			m := memprof.Measure(func() error {
				var err error
				h, err = core.Build(src, ts, core.BuildOptions{
					RequireComplete: true,
					Backend:         kc.backend,
				})
				return err
			})
			src.Close()
			if m.Err != nil {
				rep.Notes = append(rep.Notes, m.Err.Error())
				continue
			}
			comp.AddRow(n, r, kc.label, fmt.Sprintf("%.4f", m.Minutes()),
				fmt.Sprintf("%.1f", m.PeakHeapMB()), keyBytesOf(h))
		}
	}

	// --- hash backend --------------------------------------------------------
	// Open-addressing vs map vs map+compressed vs succinct on one
	// workload, split by phase: build wall time, then pure query passes
	// over pre-extracted splits (the same measured region as the
	// BFHRF-OA/BFHRF-MAP perf records), so the lookup cost the backend
	// changes is visible apart from parsing. The map rows are the
	// dict baseline (dict.go) re-keyed from an open-addressing build,
	// their build time including that re-keying.
	back := tabfmt.New("Hash backend ablation — open-addressing vs map vs succinct",
		"Backend", "n", "R", "Build(m)", "Query(m)", "PeakMem(MB)", "Unique")
	rep.Tables = append(rep.Tables, back)
	bspec := dataset.Avian()
	br := c.ScaleTrees(14446)
	for _, bc := range []struct {
		label   string
		backend core.Backend
		dict    bool
		compact bool
	}{
		{"openaddr", core.BackendOpenAddressing, false, false},
		{"map", core.BackendOpenAddressing, true, false},
		{"map+compressed", core.BackendOpenAddressing, true, true},
		{"succinct", core.BackendSuccinct, false, false},
	} {
		path, ts, err := c.materialize(bspec, br)
		if err != nil {
			rep.Notes = append(rep.Notes, err.Error())
			break
		}
		src, err := collection.OpenFile(path)
		if err != nil {
			rep.Notes = append(rep.Notes, err.Error())
			break
		}
		var h *core.FreqHash
		var d *dictHash
		mb := memprof.Measure(func() error {
			var err error
			h, err = core.Build(src, ts, core.BuildOptions{
				RequireComplete: true,
				Backend:         bc.backend,
			})
			if err == nil && bc.dict {
				d, err = newDictHash(h, bc.compact)
			}
			return err
		})
		src.Close()
		if mb.Err != nil {
			rep.Notes = append(rep.Notes, mb.Err.Error())
			continue
		}
		splits, err := extractAll(path, ts)
		if err != nil {
			rep.Notes = append(rep.Notes, err.Error())
			continue
		}
		mq := memprof.Measure(func() error {
			p, dp := h.NewProber(), &dictProber{d: d}
			for pass := 0; pass < 10; pass++ {
				for _, bs := range splits {
					if d != nil {
						dp.averageRF(bs)
					} else if _, err := p.AverageRFOfSplits(bs, core.Plain); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if mq.Err != nil {
			rep.Notes = append(rep.Notes, mq.Err.Error())
			continue
		}
		back.AddRow(bc.label, bspec.NumTaxa, br,
			fmt.Sprintf("%.4f", mb.Minutes()), fmt.Sprintf("%.4f", mq.Minutes()),
			fmt.Sprintf("%.1f", mb.PeakHeapMB()), h.UniqueBipartitions())
	}

	// --- succinct backend at huge n -----------------------------------------
	// The regime the succinct arena exists for: raw keys of n/8 bytes.
	// Build each backend once at n=4096, then report the table footprint
	// and a pure query pass — the offline twin of the hugetaxa-n4096 perf
	// workload (BENCH_0004).
	huge := tabfmt.New("Succinct backend ablation — table footprint at huge n",
		"Backend", "n", "R", "Footprint(MB)", "Query(m)", "Unique")
	rep.Tables = append(rep.Tables, huge)
	hspec := dataset.HugeTaxa(4096)
	hr := c.ScaleTrees(hspec.NumTrees)
	for _, bc := range []struct {
		label   string
		backend core.Backend
	}{
		{"openaddr", core.BackendOpenAddressing},
		{"succinct", core.BackendSuccinct},
	} {
		path, ts, err := c.materialize(hspec, hr)
		if err != nil {
			rep.Notes = append(rep.Notes, err.Error())
			break
		}
		src, err := collection.OpenFile(path)
		if err != nil {
			rep.Notes = append(rep.Notes, err.Error())
			break
		}
		h, err := core.Build(src, ts, core.BuildOptions{
			RequireComplete: true,
			Backend:         bc.backend,
		})
		src.Close()
		if err != nil {
			rep.Notes = append(rep.Notes, err.Error())
			continue
		}
		splits, err := extractAll(path, ts)
		if err != nil {
			rep.Notes = append(rep.Notes, err.Error())
			continue
		}
		mq := memprof.Measure(func() error {
			p := h.NewProber()
			for pass := 0; pass < 2; pass++ {
				for _, bs := range splits {
					if _, err := p.AverageRFOfSplits(bs, core.Plain); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if mq.Err != nil {
			rep.Notes = append(rep.Notes, mq.Err.Error())
			continue
		}
		huge.AddRow(bc.label, hspec.NumTaxa, hr,
			fmt.Sprintf("%.1f", float64(h.FootprintBytes())/(1<<20)),
			fmt.Sprintf("%.4f", mq.Minutes()), h.UniqueBipartitions())
	}

	// --- worker scaling ------------------------------------------------------
	scal := tabfmt.New("Worker scaling — BFHRF build+query wall time",
		"Workers", "n", "R", "Time(m)", "Speedup vs 1")
	rep.Tables = append(rep.Tables, scal)
	spec := dataset.VariableTrees(100000)
	r := c.ScaleTrees(50000)
	var base float64
	for _, w := range []int{1, 2, 4, 8, 16} {
		path, ts, err := c.materialize(spec, r)
		if err != nil {
			rep.Notes = append(rep.Notes, err.Error())
			break
		}
		src, err := collection.OpenFile(path)
		if err != nil {
			rep.Notes = append(rep.Notes, err.Error())
			break
		}
		qsrc, err := collection.OpenFile(path)
		if err != nil {
			src.Close()
			rep.Notes = append(rep.Notes, err.Error())
			break
		}
		m := memprof.Measure(func() error {
			h, err := core.Build(src, ts, core.BuildOptions{Workers: w, RequireComplete: true})
			if err != nil {
				return err
			}
			_, err = h.AverageRF(qsrc, core.QueryOptions{Workers: w, RequireComplete: true})
			return err
		})
		src.Close()
		qsrc.Close()
		if m.Err != nil {
			rep.Notes = append(rep.Notes, m.Err.Error())
			break
		}
		if w == 1 {
			base = m.Minutes()
		}
		speed := "-"
		if m.Minutes() > 0 {
			speed = fmt.Sprintf("%.2f", base/m.Minutes())
		}
		scal.AddRow(w, spec.NumTaxa, r, fmt.Sprintf("%.4f", m.Minutes()), speed)
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("compression shrinks key storage most at large n; worker rows are meaningful only when GOMAXPROCS > 1 (this host: %d) — on a single hardware thread they measure goroutine overhead, not the paper's §VII.A scaling", runtime.GOMAXPROCS(0)))
	return rep
}

// extractAll parses every tree of the file at path and returns its
// bipartition set, retained so callers can run repeated query passes
// without re-parsing. Shared by the backend ablation and the
// BFHRF-OA/BFHRF-MAP perf engines.
func extractAll(path string, ts *taxa.Set) ([][]bipart.Bipartition, error) {
	src, err := collection.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	ex := &bipart.Extractor{Taxa: ts, RequireComplete: true}
	var splits [][]bipart.Bipartition
	for {
		t, err := src.Next()
		if err == io.EOF {
			return splits, nil
		}
		if err != nil {
			return nil, err
		}
		bs, err := ex.Extract(t)
		if err != nil {
			return nil, err
		}
		splits = append(splits, bs)
	}
}

func keyBytesOf(h *core.FreqHash) int {
	total := 0
	for _, e := range h.KeySizes() {
		total += e
	}
	return total
}
