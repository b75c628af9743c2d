package repro

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func writeRefs(t *testing.T) (refPath, qPath string) {
	t.Helper()
	dir := t.TempDir()
	refPath = filepath.Join(dir, "refs.nwk")
	qPath = filepath.Join(dir, "q.nwk")
	refs := strings.Join(sixTaxonRefs(), "\n") + "\n"
	if err := os.WriteFile(refPath, []byte(refs), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(qPath, []byte("((A,B),((C,D),(E,F)));\n((A,F),((B,E),(C,D)));\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return refPath, qPath
}

func TestBuildHashFileAndQueryFile(t *testing.T) {
	refPath, qPath := writeRefs(t)
	h, err := BuildHashFile(refPath, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if h.Stats().NumTrees != 4 {
		t.Fatalf("stats = %+v", h.Stats())
	}
	res, err := h.AverageRFFile(qPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	if res[0].AvgRF >= res[1].AvgRF {
		t.Errorf("majority topology should score better: %v", res)
	}
	// Must agree with the one-shot file API.
	oneShot, err := AverageRFFiles(qPath, refPath, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i].AvgRF != oneShot[i].AvgRF {
			t.Errorf("query %d: hash %v vs one-shot %v", i, res[i].AvgRF, oneShot[i].AvgRF)
		}
	}
}

func TestBuildHashFileMissing(t *testing.T) {
	if _, err := BuildHashFile("/nonexistent.nwk", Config{}); err == nil {
		t.Error("missing file should fail")
	}
}

func TestHashAnnotateSupport(t *testing.T) {
	h, err := BuildHashNewick(sixTaxonRefs(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := h.AnnotateSupport("((A,B),((C,D),(E,F)));", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "75") {
		t.Errorf("annotated tree missing the 75%% label: %s", out)
	}
	// Annotated output must still parse and keep its taxa.
	d, err := PairwiseRF(out, "((A,B),((C,D),(E,F)));")
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("annotation changed the topology: RF = %d", d)
	}
	if _, err := h.AnnotateSupport("((garbage", 0); err == nil {
		t.Error("malformed input should fail")
	}
	if _, err := h.AnnotateSupport("((A,B),(C,X));", 0); err == nil {
		t.Error("foreign taxa should fail")
	}
}

func TestGreedyConsensusFile(t *testing.T) {
	refPath, _ := writeRefs(t)
	out, err := GreedyConsensusFile(refPath, 0.05, Config{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := PairwiseRF(out, "((A,B),((C,D),(E,F)));")
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("greedy consensus = %q (RF %d from majority)", out, d)
	}
	if _, err := GreedyConsensusFile("/nonexistent.nwk", 0.05, Config{}); err == nil {
		t.Error("missing file should fail")
	}
}

func TestHashAverageRFOneErrors(t *testing.T) {
	h, err := BuildHashNewick(sixTaxonRefs(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.AverageRFOne("((bad"); err == nil {
		t.Error("malformed query should fail")
	}
	if _, err := h.AverageRFOne("((A,B),(C,X));"); err == nil {
		t.Error("foreign taxa should fail")
	}
}

// TestFileEntryPointsHonorIngestConfig: every file entry point applies the
// Config's hardening fields — lenient skipping with its diagnostics, and
// the per-tree limits — as AverageRFFiles does.
func TestFileEntryPointsHonorIngestConfig(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "refs.nwk")
	qPath := filepath.Join(dir, "q.nwk")
	refs := "((A,B),((C,D),(E,F)));\n((A,B),((C,D),(E,,F)));\n((A,C),((B,D),(E,F)));\n"
	if err := os.WriteFile(refPath, []byte(refs), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(qPath, []byte(refs), 0o644); err != nil {
		t.Fatal(err)
	}
	var bad []BadTree
	lenient := Config{SkipBadTrees: true, OnBadTree: func(b BadTree) { bad = append(bad, b) }}
	limited := Config{MaxTaxa: 3}

	// files counts the files an entry point opens that hold the bad tree.
	entryPoints := []struct {
		name  string
		files int
		run   func(Config) error
	}{
		{"BuildHashFile", 1, func(cfg Config) error {
			h, err := BuildHashFile(refPath, cfg)
			if err == nil && h.Stats().NumTrees != 2 {
				t.Errorf("BuildHashFile kept %d trees, want the 2 good ones", h.Stats().NumTrees)
			}
			return err
		}},
		{"Hash.AverageRFFile", 1, func(cfg Config) error {
			h, err := BuildHashNewick([]string{"((A,B),((C,D),(E,F)));"}, cfg)
			if err != nil {
				return err
			}
			res, err := h.AverageRFFile(qPath)
			if err == nil && len(res) != 2 {
				t.Errorf("Hash.AverageRFFile answered %d queries, want the 2 good ones", len(res))
			}
			return err
		}},
		{"ConsensusFile", 1, func(cfg Config) error {
			_, err := ConsensusFile(refPath, 0.5, cfg)
			return err
		}},
		{"GreedyConsensusFile", 1, func(cfg Config) error {
			_, err := GreedyConsensusFile(refPath, 0.5, cfg)
			return err
		}},
	}
	for _, ep := range entryPoints {
		if err := ep.run(Config{}); err == nil {
			t.Errorf("%s: strict ingest accepted a malformed tree", ep.name)
		}
		bad = nil
		if err := ep.run(lenient); err != nil {
			t.Errorf("%s with SkipBadTrees: %v", ep.name, err)
		}
		// Lenient ingest reports a skipped tree once per opened file,
		// however many passes read it (catalogue, build, query).
		if len(bad) != ep.files || slices.ContainsFunc(bad, func(b BadTree) bool { return b.Tree != 2 }) {
			t.Errorf("%s with SkipBadTrees: diagnostics %+v, want tree 2 reported %d time(s)", ep.name, bad, ep.files)
		}
		if err := ep.run(limited); err == nil {
			t.Errorf("%s with MaxTaxa 3 accepted a 6-taxon tree", ep.name)
		}
	}
}
