package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/bfhsnap"
	"repro/internal/bipart"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/newick"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/taxa"
	"repro/internal/tree"
)

// Layer probes time calls into one package's public functions on the
// workload's own inputs, outside every end-to-end timing, and record one
// span per call.

// Metrics of layers that a workload's path never enters (README.md,
// "Idle layers").
var (
	snapMetrics    = []string{"bfhsnap.load_ms", "bfhsnap.bytes"}
	serveMetrics   = []string{"serve.decode_us_per_request", "serve.execute_us_per_request", "serve.admit_us", "serve.residual_us", "serve.queue_depth_max", "serve.max_rps", "gen.late_p99_ms"}
	distribMetrics = []string{"distrib.query_ms_per_request", "distrib.rpc_bytes_per_request", "distrib.retries"}
)

// maxProbeQueries bounds the query trees the probe layer is timed on.
const maxProbeQueries = 2000

// batchLayers measures the layers of the file-to-answer path: raw reads,
// parse, extract, build and probe.
func (r *run) batchLayers() error {
	var rates []float64
	var raws []string
	for i := 0; i < 3; i++ {
		f, err := collection.OpenFile(r.fx.ref)
		if err != nil {
			return err
		}
		raws = raws[:0]
		size := 0
		sp := r.rec.start("collection.File.NextRaw", 0)
		for {
			s, err := f.NextRaw()
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				return err
			}
			size += len(s)
			raws = append(raws, s)
		}
		d := sp.end()
		f.Close()
		rates = append(rates, float64(size)/1e6/d.Seconds())
	}
	r.set("collection.read_mb_per_s", median(rates))

	trees, err := r.parseLayer(raws)
	if err != nil {
		return err
	}
	raws = nil
	ts, err := collection.ScanTaxa(collection.FromTrees(trees))
	if err != nil {
		return err
	}
	if err := r.extractLayer(trees, ts); err != nil {
		return err
	}
	runtime.GC()
	sp := r.rec.start("core.Build", 0)
	h, err := core.Build(collection.FromTrees(trees), ts, core.BuildOptions{Workers: workers, RequireComplete: true})
	d := sp.end()
	if err != nil {
		return fmt.Errorf("core.Build: %w", err)
	}
	r.set("core.build_s", d.Seconds())
	if err := r.probeLayer(h, trees); err != nil {
		return err
	}
	r.tableLayer([]*core.FreqHash{h})
	r.setIdle(snapMetrics...)
	r.setIdle(serveMetrics...)
	r.setIdle(distribMetrics...)
	return nil
}

// parseLayer parses each raw statement with newick.Parse.
func (r *run) parseLayer(raws []string) ([]*tree.Tree, error) {
	trees := make([]*tree.Tree, len(raws))
	var err error
	runtime.GC()
	n := allocs(func() {
		for i, s := range raws {
			sp := r.rec.start("newick.Parse", 0)
			trees[i], err = newick.Parse(s)
			sp.end()
			if err != nil {
				err = fmt.Errorf("newick.Parse of tree %d: %w", i, err)
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	r.set("newick.parse_us_per_tree", r.rec.perCall("newick.Parse"))
	r.set("newick.allocs_per_tree", float64(n)/float64(len(raws)))
	return trees, nil
}

// extractLayer extracts every tree's bipartitions the way the query
// engine does: one extractor, masks recycled between calls.
func (r *run) extractLayer(trees []*tree.Tree, ts *taxa.Set) error {
	ex := &bipart.Extractor{Taxa: ts, RequireComplete: true, ReuseMasks: true}
	var err error
	runtime.GC()
	n := allocs(func() {
		for i, t := range trees {
			sp := r.rec.start("bipart.Extractor.Extract", 0)
			_, err = ex.Extract(t)
			sp.end()
			if err != nil {
				err = fmt.Errorf("extracting tree %d: %w", i, err)
				return
			}
		}
	})
	if err != nil {
		return err
	}
	r.set("bipart.extract_us_per_tree", r.rec.perCall("bipart.Extractor.Extract"))
	r.set("bipart.allocs_per_tree", float64(n)/float64(len(trees)))
	return nil
}

// probeLayer probes the table with pre-extracted splits of up to
// maxProbeQueries trees, with no result cache in the way.
func (r *run) probeLayer(h *core.FreqHash, trees []*tree.Tree) error {
	trees = trees[:min(len(trees), maxProbeQueries)]
	ex := &bipart.Extractor{Taxa: h.Taxa(), RequireComplete: true}
	splits := make([][]bipart.Bipartition, len(trees))
	for i, t := range trees {
		bs, err := ex.Extract(t)
		if err != nil {
			return fmt.Errorf("extracting query %d: %w", i, err)
		}
		splits[i] = bs
	}
	p := h.NewProber()
	for round := 0; round < 3; round++ {
		for i, bs := range splits {
			sp := r.rec.start("core.Prober.AverageRFOfSplits", 0)
			_, err := p.AverageRFOfSplits(bs, core.Plain)
			sp.end()
			if err != nil {
				return fmt.Errorf("probing query %d: %w", i, err)
			}
		}
	}
	r.set("core.probe_us_per_query", r.rec.perCall("core.Prober.AverageRFOfSplits"))
	return nil
}

// tableLayer reports the size of the tables answering the workload
// (summed over the worker shards of a distributed collection).
func (r *run) tableLayer(hs []*core.FreqHash) {
	var size int64
	unique := 0
	for _, h := range hs {
		size += h.FootprintBytes()
		unique += h.UniqueBipartitions()
	}
	r.set("bfhtable.footprint_mb", float64(size)/(1<<20))
	r.set("bfhtable.unique_bipartitions", float64(unique))
}

// serveLayers measures the layers of the serving path on the workload's
// request pool: snapshot load, parse, extract, probe, request decode,
// admission and, for serve-distrib, the coordinator. p50 is the untraced
// open-loop median latency in milliseconds and execute the median
// Backend.Query time of the served requests in microseconds.
func (r *run) serveLayers(b *backend, reqs []request, p50, execute float64) error {
	ctx := context.Background()
	var loads []float64
	var e *bfhsnap.Epoch
	var loaded uint64
	for i := 0; i < 3; i++ {
		runtime.GC()
		c0 := counter("bfhrf_snapshot_bytes", obs.L("op", "load"))
		var d time.Duration
		if r.w.distributed {
			sp := r.rec.start("distrib.Coordinator.LoadSnapshotContext", 0)
			err := b.cl.coord.LoadSnapshotContext(ctx, r.fx.workers)
			d = sp.end()
			if err != nil {
				return err
			}
		} else {
			sp := r.rec.start("bfhsnap.Store.Pin", 0)
			ep, err := pin(r.fx.local)
			d = sp.end()
			if err != nil {
				return err
			}
			if e != nil {
				e.Release()
			}
			e = ep
		}
		loaded = counter("bfhrf_snapshot_bytes", obs.L("op", "load")) - c0
		loads = append(loads, ms(d))
	}
	r.set("bfhsnap.load_ms", median(loads))
	r.set("bfhsnap.bytes", float64(loaded))

	// The probe runs on the single-node table; a distributed collection
	// holds the same bipartitions split over its workers' tables.
	if e == nil {
		ep, err := pin(r.fx.local)
		if err != nil {
			return err
		}
		e = ep
	}
	defer e.Release()
	var raws []string
	for _, q := range reqs {
		raws = append(raws, q.trees...)
	}
	trees, err := r.parseLayer(raws)
	if err != nil {
		return err
	}
	if err := r.extractLayer(trees, e.Hash.Taxa()); err != nil {
		return err
	}
	if err := r.probeLayer(e.Hash, trees); err != nil {
		return err
	}
	tables := []*core.FreqHash{e.Hash}
	if r.w.distributed {
		if tables, err = workerTables(r.fx.workers); err != nil {
			return err
		}
	}
	r.tableLayer(tables)

	lim := serve.Config{}.Limits
	for i, q := range reqs {
		sp := r.rec.start("serve.decode", 0)
		err := decodeRequest(q.body, lim)
		sp.end()
		if err != nil {
			return fmt.Errorf("decoding pool request %d: %w", i, err)
		}
	}
	decode := r.rec.perCall("serve.decode")
	r.set("serve.decode_us_per_request", decode)
	r.set("serve.residual_us", p50*1e3-decode-execute)
	admit, err := r.admitLayer()
	if err != nil {
		return err
	}
	r.set("serve.admit_us", admit)

	if r.w.distributed {
		c0 := readCounters(b.addrs)
		for i := range reqs {
			sp := r.rec.start("distrib.Coordinator.AverageRFContext", 0)
			_, err := b.cl.coord.AverageRFContext(ctx, collection.FromTrees(trees[i*requestTrees:(i+1)*requestTrees]))
			sp.end()
			if err != nil {
				return fmt.Errorf("AverageRFContext of pool request %d: %w", i, err)
			}
		}
		d := readCounters(b.addrs).since(c0)
		r.set("distrib.query_ms_per_request", r.rec.perCall("distrib.Coordinator.AverageRFContext")/1e3)
		r.set("distrib.rpc_bytes_per_request", float64(d.rpcRead+d.rpcWritten)/float64(len(reqs)))
	} else {
		r.setIdle(distribMetrics...)
	}
	r.setIdle("collection.read_mb_per_s", "core.build_s")
	return nil
}

// admitLayer times the admission layer's per-request work on a fresh
// Admission with the service's configuration: Admit, Acquire, release.
func (r *run) admitLayer() (float64, error) {
	const n = 20000
	a := serve.NewAdmission(serve.Config{}.Admission)
	ctx := context.Background()
	sp := r.rec.start("serve.Admission", 0)
	for i := 0; i < n; i++ {
		release, shed := a.Admit("default")
		if shed != nil {
			return 0, fmt.Errorf("admission shed an idle request: %s", shed.Reason)
		}
		if err := a.Acquire(ctx); err != nil {
			return 0, err
		}
		a.ReleaseExec()
		release()
	}
	return float64(sp.end()) / 1e3 / n, nil
}

// decodeRequest repeats the service's request decoding: the JSON body,
// then each tree through a Newick reader under the service's limits.
func decodeRequest(body []byte, lim newick.Limits) error {
	var req struct {
		Collection string   `json:"collection"`
		Variant    string   `json:"variant"`
		Trees      []string `json:"trees"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return err
	}
	for _, s := range req.Trees {
		rd := newick.NewReader(strings.NewReader(s))
		rd.SetLimits(lim)
		if _, err := rd.Read(); err != nil {
			return err
		}
	}
	return nil
}

func pin(dir string) (*bfhsnap.Epoch, error) {
	st, err := bfhsnap.Open(dir)
	if err != nil {
		return nil, err
	}
	return st.Pin()
}

// workerTables loads each part of a worker-layout epoch: the tables the
// workers of a distributed collection hold.
func workerTables(dir string) ([]*core.FreqHash, error) {
	st, err := bfhsnap.Open(dir)
	if err != nil {
		return nil, err
	}
	cur := st.Current()
	man, err := st.Manifest(cur)
	if err != nil {
		return nil, err
	}
	var out []*core.FreqHash
	for _, p := range man.Parts {
		h, _, err := bfhsnap.LoadFile(st.PartPath(cur, p))
		if err != nil {
			return nil, err
		}
		out = append(out, h)
	}
	return out, nil
}
