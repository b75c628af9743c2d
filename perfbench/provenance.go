package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// host identifies the machine a number was measured on. Numbers from two
// hosts are not comparable; the run says so loudly when its host differs
// from the baseline's.
type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// provenance ties a result to its host, code and inputs.
type provenance struct {
	Host host `json:"host"`
	// Commit is the VCS revision the binary was built from ("unknown"
	// outside a git checkout); Source is a digest of the Go sources and
	// module files under the checkout root, which identifies the code
	// either way.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
	Seed   int64  `json:"seed"`
}

func thisHost() host {
	return host{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func newProvenance(o options) provenance {
	p := provenance{Host: thisHost(), Commit: "unknown", Source: sourceDigest(o.root, o.work), Seed: o.seed}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					p.Commit += "+modified"
				}
			}
		}
	}
	return p
}

// sourceDigest hashes every .go, go.mod and go.sum file under root
// (skipping the work directory and hidden directories), in path order.
func sourceDigest(root, work string) string {
	var files []string
	absWork, _ := filepath.Abs(work)
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error { //nolint:errcheck — unreadable paths are skipped
		if err != nil {
			return nil
		}
		if d.IsDir() {
			abs, _ := filepath.Abs(path)
			if path != root && (strings.HasPrefix(d.Name(), ".") || abs == absWork) {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, filepath.ToSlash(rel)+"\x00")
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.Copy(h, f) //nolint:errcheck — a short read changes the digest, which is the point
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkHost compares this host with the one the committed baseline was
// measured on and warns loudly when they differ.
func checkHost(o options, h host) map[string]any {
	path := filepath.Join(o.root, "perfbench", "baseline.json")
	b, err := os.ReadFile(path)
	if err != nil {
		return map[string]any{"baseline": "none"}
	}
	var base struct {
		Provenance provenance `json:"provenance"`
	}
	if err := json.Unmarshal(b, &base); err != nil {
		return map[string]any{"baseline": "unreadable: " + err.Error()}
	}
	bh := base.Provenance.Host
	bh.GOMAXPROCS, h.GOMAXPROCS = 0, 0 // a setting, not the machine
	if bh == h {
		return map[string]any{"baseline": "same host"}
	}
	logf("WARNING: THIS HOST DIFFERS FROM THE BASELINE HOST — do not compare these numbers with perfbench/baseline.json")
	logf("  baseline: %+v", bh)
	logf("  this run: %+v", h)
	return map[string]any{"baseline": "DIFFERENT HOST", "baseline_host": bh}
}
