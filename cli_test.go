package repro

// End-to-end tests of the four command-line tools: each binary is built
// once per test run and exercised against generated data, including the
// failure paths (missing files, malformed input, bad flags).

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	cliOnce sync.Once
	cliDir  string
	cliErr  error
)

// buildCLIs compiles every cmd/ binary into a shared temp dir once.
func buildCLIs(t *testing.T) string {
	t.Helper()
	cliOnce.Do(func() {
		dir, err := os.MkdirTemp("", "bfhrf-cli-")
		if err != nil {
			cliErr = err
			return
		}
		cliDir = dir
		for _, name := range []string{"bfhrf", "bfhrfd", "rfdist", "treegen", "rfbench", "tracevet"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(dir, name), "./cmd/"+name)
			cmd.Dir = "."
			if out, err := cmd.CombinedOutput(); err != nil {
				cliErr = err
				t.Logf("build %s: %s", name, out)
				return
			}
		}
	})
	if cliErr != nil {
		t.Skipf("cannot build CLIs: %v", cliErr)
	}
	return cliDir
}

func run(t *testing.T, bin string, args ...string) (string, string, error) {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildCLIs(t), bin), args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

func TestCLITreegenAndBfhrf(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests in -short mode")
	}
	dir := t.TempDir()
	refs := filepath.Join(dir, "refs.nwk")
	queries := filepath.Join(dir, "q.nwk")

	if _, stderr, err := run(t, "treegen", "-n", "16", "-r", "40", "-seed", "5", "-out", refs); err != nil {
		t.Fatalf("treegen: %v\n%s", err, stderr)
	}
	if _, stderr, err := run(t, "treegen", "-n", "16", "-r", "40", "-seed", "5", "-queries", "6", "-moves", "2", "-out", queries); err != nil {
		t.Fatalf("treegen -queries: %v\n%s", err, stderr)
	}

	stdout, _, err := run(t, "bfhrf", "-ref", refs, "-query", queries)
	if err != nil {
		t.Fatalf("bfhrf: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 6 {
		t.Fatalf("bfhrf output lines = %d, want 6:\n%s", len(lines), stdout)
	}
	for _, l := range lines {
		if !strings.Contains(l, "\t") {
			t.Errorf("malformed output line %q", l)
		}
	}

	// -best prints exactly one line.
	stdout, _, err = run(t, "bfhrf", "-ref", refs, "-query", queries, "-best")
	if err != nil {
		t.Fatalf("bfhrf -best: %v", err)
	}
	if n := len(strings.Split(strings.TrimSpace(stdout), "\n")); n != 1 {
		t.Errorf("-best printed %d lines", n)
	}

	// Q=R default, variants, compressed keys.
	for _, extra := range [][]string{
		{},
		{"-variant", "normalized"},
		{"-variant", "info"},
		{"-backend", "succinct"},
		{"-min-split", "3"},
	} {
		args := append([]string{"-ref", refs}, extra...)
		if _, stderr, err := run(t, "bfhrf", args...); err != nil {
			t.Errorf("bfhrf %v: %v\n%s", extra, err, stderr)
		}
	}

	// Every variant answers byte-identically on both hash backends.
	for _, variant := range []string{"plain", "normalized", "weighted", "info"} {
		var outs []string
		for _, backend := range []string{"openaddr", "succinct"} {
			stdout, stderr, err := run(t, "bfhrf", "-ref", refs, "-query", queries, "-variant", variant, "-backend", backend)
			if err != nil {
				t.Fatalf("bfhrf -variant %s -backend %s: %v\n%s", variant, backend, err, stderr)
			}
			outs = append(outs, stdout)
		}
		if outs[0] != outs[1] {
			t.Errorf("-variant %s: openaddr and succinct output differ:\n%s\nvs\n%s", variant, outs[0], outs[1])
		}
	}

	// The retired map backend is refused, pointing at its replacement.
	if _, stderr, err := run(t, "bfhrf", "-ref", refs, "-backend", "map"); err == nil || !strings.Contains(stderr, "succinct") {
		t.Errorf("bfhrf -backend map: %v, stderr %q; want a failure naming succinct", err, stderr)
	}
}

func TestCLIBfhrfErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests in -short mode")
	}
	if _, _, err := run(t, "bfhrf"); err == nil {
		t.Error("bfhrf without -ref should exit non-zero")
	}
	if _, _, err := run(t, "bfhrf", "-ref", "/nonexistent.nwk"); err == nil {
		t.Error("bfhrf with missing file should exit non-zero")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.nwk")
	if err := os.WriteFile(bad, []byte("(A,B,(C;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := run(t, "bfhrf", "-ref", bad); err == nil {
		t.Error("bfhrf with malformed Newick should exit non-zero")
	}
	goodRefs := filepath.Join(dir, "g.nwk")
	if err := os.WriteFile(goodRefs, []byte("((A,B),(C,D));\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := run(t, "bfhrf", "-ref", goodRefs, "-variant", "bogus"); err == nil {
		t.Error("bfhrf with unknown variant should exit non-zero")
	}
}

func TestCLIRfdist(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests in -short mode")
	}
	dir := t.TempDir()
	a := filepath.Join(dir, "a.nwk")
	b := filepath.Join(dir, "b.nwk")
	coll := filepath.Join(dir, "coll.nwk")
	os.WriteFile(a, []byte("((A,B),(C,D));\n"), 0o644)
	os.WriteFile(b, []byte("((D,B),(C,A));\n"), 0o644)
	os.WriteFile(coll, []byte("((A,B),(C,D));\n((A,B),(C,D));\n((A,C),(B,D));\n"), 0o644)

	stdout, _, err := run(t, "rfdist", "-a", a, "-b", b)
	if err != nil {
		t.Fatalf("rfdist pairwise: %v", err)
	}
	if strings.TrimSpace(stdout) != "2" {
		t.Errorf("pairwise RF = %q, want 2 (the paper's worked example)", strings.TrimSpace(stdout))
	}

	stdout, _, err = run(t, "rfdist", "-matrix", coll)
	if err != nil {
		t.Fatalf("rfdist -matrix: %v", err)
	}
	rows := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(rows) != 3 {
		t.Fatalf("matrix rows = %d", len(rows))
	}
	if !strings.HasPrefix(rows[0], "0\t0\t2") {
		t.Errorf("matrix row 0 = %q", rows[0])
	}

	stdout, _, err = run(t, "rfdist", "-matrix", coll, "-avg")
	if err != nil {
		t.Fatalf("rfdist -avg: %v", err)
	}
	if len(strings.Split(strings.TrimSpace(stdout), "\n")) != 3 {
		t.Error("avg output should have one line per tree")
	}

	for _, mode := range [][]string{
		{"-consensus", coll, "-t", "0.5"},
		{"-consensus", coll, "-greedy"},
	} {
		stdout, stderr, err := run(t, "rfdist", mode...)
		if err != nil {
			t.Fatalf("rfdist %v: %v\n%s", mode, err, stderr)
		}
		if !strings.HasSuffix(strings.TrimSpace(stdout), ";") {
			t.Errorf("consensus output not Newick: %q", stdout)
		}
	}

	// ASCII rendering: one row per taxon, no Newick.
	stdout, stderr, err := run(t, "rfdist", "-consensus", coll, "-draw")
	if err != nil {
		t.Fatalf("rfdist -draw: %v\n%s", err, stderr)
	}
	if lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n"); len(lines) != 4 {
		t.Errorf("-draw lines = %d, want 4:\n%s", len(lines), stdout)
	}
	if strings.Contains(stdout, ";") {
		t.Errorf("-draw output should not be Newick:\n%s", stdout)
	}

	// Clustering mode.
	stdout, _, err = run(t, "rfdist", "-matrix", coll, "-cluster", "2")
	if err != nil {
		t.Fatalf("rfdist -cluster: %v", err)
	}
	if len(strings.Split(strings.TrimSpace(stdout), "\n")) != 3 {
		t.Errorf("-cluster should print one label per tree:\n%s", stdout)
	}
	if _, _, err := run(t, "rfdist", "-matrix", coll, "-cluster", "2", "-linkage", "bogus"); err == nil {
		t.Error("bogus linkage should exit non-zero")
	}

	if _, _, err := run(t, "rfdist"); err == nil {
		t.Error("rfdist without a mode should exit non-zero")
	}
}

func TestCLITreegenDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests in -short mode")
	}
	dir := t.TempDir()
	for _, ds := range []string{"avian", "insect", "vartrees", "vartaxa"} {
		out := filepath.Join(dir, ds+".nwk")
		if _, stderr, err := run(t, "treegen", "-dataset", ds, "-r", "5", "-out", out); err != nil {
			t.Fatalf("treegen -dataset %s: %v\n%s", ds, err, stderr)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(data), ";"); n != 5 {
			t.Errorf("%s: wrote %d trees, want 5", ds, n)
		}
	}
	// Insect must be unweighted.
	data, _ := os.ReadFile(filepath.Join(dir, "insect.nwk"))
	if strings.Contains(string(data), ":") {
		t.Error("insect output should carry no branch lengths")
	}
	// Unknown dataset fails.
	if _, _, err := run(t, "treegen", "-dataset", "bogus"); err == nil {
		t.Error("unknown dataset should exit non-zero")
	}
	// Random mode.
	if _, _, err := run(t, "treegen", "-n", "8", "-r", "3", "-random", "-out", filepath.Join(dir, "rnd.nwk")); err != nil {
		t.Error("treegen -random failed")
	}
}

func TestCLIRfbenchSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests in -short mode")
	}
	stdout, stderr, err := run(t, "rfbench", "-exp", "datasets")
	if err != nil {
		t.Fatalf("rfbench: %v\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "Table II") || !strings.Contains(stdout, "Avian") {
		t.Errorf("rfbench datasets output malformed:\n%s", stdout)
	}
	if _, _, err := run(t, "rfbench", "-exp", "nonsense"); err == nil {
		t.Error("unknown experiment should exit non-zero")
	}
}
