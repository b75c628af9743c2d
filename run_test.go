package repro

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTrees(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const runRefs = "((a,b),(c,d),e);\n((a,c),(b,d),e);\n((a,d),(b,c),e);\n"
const runQueries = "((a,b),(c,d),e);\n((a,c),(b,d),e);\n((a,d),(b,c),e);\n((a,e),(b,c),d);\n((b,e),(a,c),d);\n"

func TestResumableMatchesPlainRun(t *testing.T) {
	dir := t.TempDir()
	qp := writeTrees(t, dir, "q.nwk", runQueries)
	rp := writeTrees(t, dir, "r.nwk", runRefs)
	ck := filepath.Join(dir, "run.ckpt")

	plain, err := AverageRFFiles(qp, rp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ckpted, err := AverageRFFilesResumable(qp, rp, Config{}, RunOptions{CheckpointPath: ck, CheckpointInterval: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(ckpted) {
		t.Fatalf("plain %d results, checkpointed %d", len(plain), len(ckpted))
	}
	for i := range plain {
		if plain[i] != ckpted[i] {
			t.Fatalf("result %d: plain %+v != checkpointed %+v", i, plain[i], ckpted[i])
		}
	}

	// Resuming the finished run recomputes nothing and returns identical
	// results.
	resumed, err := AverageRFFilesResumable(qp, rp, Config{}, RunOptions{CheckpointPath: ck, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i] != resumed[i] {
			t.Fatalf("resumed result %d: %+v != %+v", i, resumed[i], plain[i])
		}
	}
}

func TestResumeAfterCancelIsBitIdentical(t *testing.T) {
	dir := t.TempDir()
	qp := writeTrees(t, dir, "q.nwk", runQueries)
	rp := writeTrees(t, dir, "r.nwk", runRefs)
	ck := filepath.Join(dir, "run.ckpt")

	baseline, err := AverageRFFiles(qp, rp, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Cancel before any query is fed: the run checkpoints nothing (or
	// very little) and reports context.Canceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	partial, err := AverageRFFilesResumable(qp, rp, Config{}, RunOptions{
		CheckpointPath: ck, CheckpointInterval: 1, Context: ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run gave %v, want context.Canceled", err)
	}
	if len(partial) >= len(baseline) {
		t.Fatalf("canceled run completed all %d queries", len(partial))
	}

	// Resume and finish; merged results must be bit-identical.
	final, err := AverageRFFilesResumable(qp, rp, Config{}, RunOptions{
		CheckpointPath: ck, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != len(baseline) {
		t.Fatalf("resumed run has %d results, want %d", len(final), len(baseline))
	}
	for i := range baseline {
		if final[i] != baseline[i] {
			t.Fatalf("result %d: resumed %+v != baseline %+v", i, final[i], baseline[i])
		}
	}
}

// TestCanceledRunStopsReferenceBuild: the run's context reaches the
// reference build, which stops reading when it ends. The reference file's
// last statement is malformed, so a build that read the whole file would
// fail on it instead of reporting the cancellation.
func TestCanceledRunStopsReferenceBuild(t *testing.T) {
	dir := t.TempDir()
	qp := writeTrees(t, dir, "q.nwk", runQueries)
	rp := writeTrees(t, dir, "r.nwk", strings.Repeat(runRefs, 100)+"((a,b),(c,d);\n")
	if _, err := AverageRFFiles(qp, rp, Config{}); err == nil || errors.Is(err, context.Canceled) {
		t.Fatalf("uncanceled run gave %v, want the malformed last reference", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := AverageRFFilesResumable(qp, rp, Config{}, RunOptions{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run gave %v, want context.Canceled", err)
	}
	if len(res) != 0 {
		t.Fatalf("canceled run answered %d queries", len(res))
	}
}

func TestResumeRejectsDifferentReferences(t *testing.T) {
	dir := t.TempDir()
	qp := writeTrees(t, dir, "q.nwk", runQueries)
	rp := writeTrees(t, dir, "r.nwk", runRefs)
	rp2 := writeTrees(t, dir, "r2.nwk", "((a,b),(c,e),d);\n((a,c),(b,e),d);\n")
	ck := filepath.Join(dir, "run.ckpt")

	if _, err := AverageRFFilesResumable(qp, rp, Config{}, RunOptions{CheckpointPath: ck}); err != nil {
		t.Fatal(err)
	}
	_, err := AverageRFFilesResumable(qp, rp2, Config{}, RunOptions{CheckpointPath: ck, Resume: true})
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("resume against different references gave %v, want ErrCheckpointMismatch", err)
	}
}

func TestResumeRejectsDifferentConfig(t *testing.T) {
	dir := t.TempDir()
	qp := writeTrees(t, dir, "q.nwk", runQueries)
	rp := writeTrees(t, dir, "r.nwk", runRefs)
	ck := filepath.Join(dir, "run.ckpt")

	if _, err := AverageRFFilesResumable(qp, rp, Config{}, RunOptions{CheckpointPath: ck}); err != nil {
		t.Fatal(err)
	}
	_, err := AverageRFFilesResumable(qp, rp, Config{Variant: VariantNormalized},
		RunOptions{CheckpointPath: ck, Resume: true})
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("resume with different variant gave %v, want ErrCheckpointMismatch", err)
	}
}

func TestLenientIngestEndToEnd(t *testing.T) {
	dir := t.TempDir()
	qp := writeTrees(t, dir, "q.nwk", "((a,b),(c,d),e);\n(a,,b);\n((a,c),(b,d),e);\n")
	rp := writeTrees(t, dir, "r.nwk", runRefs)

	if _, err := AverageRFFiles(qp, rp, Config{}); err == nil {
		t.Fatal("strict run accepted malformed query file")
	}

	var bad []BadTree
	res, err := AverageRFFiles(qp, rp, Config{
		SkipBadTrees: true,
		OnBadTree:    func(b BadTree) { bad = append(bad, b) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("lenient run returned %d results, want 2", len(res))
	}
	if len(bad) == 0 || bad[0].Tree != 2 {
		t.Fatalf("bad-tree diagnostics: %+v", bad)
	}
}
