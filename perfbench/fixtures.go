package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"

	"repro"
	"repro/internal/collection"
	"repro/internal/distrib"
	"repro/internal/newick"
)

// fixtures are a workload's generated inputs. They depend only on the
// dataset and the seed, so they are cached under the work directory keyed
// by both and made before, never during, a measured run.
type fixtures struct {
	// ref is the reference collection; batch workloads also query it.
	ref string
	// chunks are ref cut into query files of the workload's chunk size, in
	// order (batch workloads only).
	chunks []string
	// queries is the serve workloads' pool of NNI-perturbed query trees.
	queries string
	// local is a single-node snapshot store of the reference; workers is
	// the worker-layout store a 2-worker coordinator restores.
	local, workers string
}

// ensureFixtures makes whatever the workload needs and is missing. Each
// artifact is written under a temporary name and renamed into place, so an
// interrupted generation never leaves a half-written fixture behind.
func ensureFixtures(o options, w workload) (*fixtures, error) {
	key := fmt.Sprintf("n%d-r%d-s%d", w.taxa, w.trees, o.seed)
	if o.smoke {
		key += "-smoke"
	}
	dir := filepath.Join(o.work, "fixtures", key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fx := &fixtures{ref: filepath.Join(dir, "ref.nwk")}
	if err := ensure(fx.ref, func(tmp string) error { return writeReference(tmp, w, o.seed) }); err != nil {
		return nil, fmt.Errorf("reference collection: %w", err)
	}
	if !w.serve {
		chunks := filepath.Join(dir, fmt.Sprintf("chunks-c%d", w.chunk))
		if err := ensure(chunks, func(tmp string) error { return writeChunks(tmp, fx.ref, w.chunk) }); err != nil {
			return nil, fmt.Errorf("query chunks: %w", err)
		}
		for i := 0; i*w.chunk < w.trees; i++ {
			fx.chunks = append(fx.chunks, filepath.Join(chunks, chunkName(i)))
		}
		return fx, nil
	}
	pool := poolTrees(o.smoke)
	fx.queries = filepath.Join(dir, fmt.Sprintf("queries-p%d.nwk", pool))
	if err := ensure(fx.queries, func(tmp string) error { return writeQueries(tmp, w, o.seed, pool) }); err != nil {
		return nil, fmt.Errorf("query pool: %w", err)
	}
	fx.local = filepath.Join(dir, "snap-local")
	if err := ensure(fx.local, func(tmp string) error { return saveLocal(tmp, fx.ref) }); err != nil {
		return nil, fmt.Errorf("local snapshot: %w", err)
	}
	if w.distributed {
		fx.workers = filepath.Join(dir, "snap-workers")
		if err := ensure(fx.workers, func(tmp string) error { return saveWorkers(tmp, fx.ref, w.trees) }); err != nil {
			return nil, fmt.Errorf("worker snapshot: %w", err)
		}
	}
	return fx, nil
}

// ensure runs build into a temporary path and renames it to path, unless
// path already exists.
func ensure(path string, build func(tmp string) error) error {
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	tmp := path + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := build(tmp); err != nil {
		os.RemoveAll(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

func writeReference(path string, w workload, seed int64) error {
	src, _ := w.source(seed)
	return writeNewick(path, src)
}

func writeQueries(path string, w workload, seed int64, pool int) error {
	qs, err := w.querySet(seed, pool)
	if err != nil {
		return err
	}
	return writeNewick(path, collection.FromTrees(qs))
}

// writeChunks copies the statements of ref, unchanged, into files of size
// statements each in the directory dir.
func writeChunks(dir, ref string, size int) error {
	raws, err := readRaw(ref, math.MaxInt)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := 0; i*size < len(raws); i++ {
		body := strings.Join(raws[i*size:min((i+1)*size, len(raws))], "\n") + "\n"
		if err := os.WriteFile(filepath.Join(dir, chunkName(i)), []byte(body), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func chunkName(i int) string { return fmt.Sprintf("q-%04d.nwk", i) }

func writeNewick(path string, src collection.Source) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	opts := newick.WriteOptions{BranchLengths: true, Precision: 6}
	for {
		t, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := newick.Write(bw, t, opts); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// saveLocal builds the reference hash and publishes it as epoch 1 of a
// single-node snapshot store.
func saveLocal(dir, ref string) error {
	h, err := repro.BuildHashFile(ref, repro.Config{Workers: workers})
	if err != nil {
		return err
	}
	_, err = h.SaveSnapshot(dir)
	return err
}

// saveWorkers loads the reference onto two in-process workers through a
// coordinator and publishes the cluster as a worker-layout epoch.
func saveWorkers(dir, ref string, trees int) error {
	cl, err := startCluster()
	if err != nil {
		return err
	}
	defer cl.close()
	// Chunks go to the workers round robin; small references need small
	// chunks for every worker to get a shard.
	cl.coord.ChunkSize = min(cl.coord.ChunkSize, max(1, trees/(2*workers)))
	src, err := collection.OpenFile(ref)
	if err != nil {
		return err
	}
	defer src.Close()
	ts, err := collection.ScanTaxa(src)
	if err != nil {
		return err
	}
	if err := cl.coord.Load(src, ts, false); err != nil {
		return err
	}
	_, err = cl.coord.SaveSnapshotsContext(context.Background(), dir)
	return err
}

// cluster is a coordinator over two workers listening on loopback TCP in
// this process.
type cluster struct {
	coord *distrib.Coordinator
	lis   []net.Listener
	addrs []string
}

func startCluster() (*cluster, error) {
	cl := &cluster{}
	for i := 0; i < workers; i++ {
		l, err := distrib.Listen("127.0.0.1:0")
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.lis = append(cl.lis, l)
		cl.addrs = append(cl.addrs, l.Addr().String())
	}
	coord, err := distrib.Dial(cl.addrs)
	if err != nil {
		cl.close()
		return nil, err
	}
	cl.coord = coord
	return cl, nil
}

func (cl *cluster) close() {
	if cl.coord != nil {
		cl.coord.Close()
	}
	for _, l := range cl.lis {
		l.Close()
	}
}
