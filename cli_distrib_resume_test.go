package repro

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runEnv is run with extra environment entries, returning the exit code
// instead of an error.
func runEnv(t *testing.T, env []string, bin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildCLIs(t), bin), args...)
	cmd.Env = append(os.Environ(), env...)
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	code = exitCode(t, cmd.Run())
	return out.String(), errb.String(), code
}

// TestCLIBfhrfdCheckpointResume drives the coordinator's checkpointed
// run end to end: a coordinator over two worker processes is killed
// mid-run by an injected crash inside a checkpoint flush, and a -resume
// run must print exactly what an uninterrupted bfhrf run prints. A
// checkpoint written against other references must be refused.
func TestCLIBfhrfdCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests in -short mode")
	}
	data := t.TempDir()
	refs := filepath.Join(data, "refs.nwk")
	refs2 := filepath.Join(data, "refs2.nwk")
	queries := filepath.Join(data, "q.nwk")
	for _, args := range [][]string{
		{"-n", "12", "-r", "30", "-seed", "5", "-out", refs},
		{"-n", "12", "-r", "30", "-seed", "6", "-out", refs2},
		{"-n", "12", "-r", "30", "-seed", "5", "-queries", "8", "-out", queries},
	} {
		if _, stderr, err := run(t, "treegen", args...); err != nil {
			t.Fatalf("treegen %v: %v\n%s", args, err, stderr)
		}
	}
	want, stderr, err := run(t, "bfhrf", "-ref", refs, "-query", queries)
	if err != nil {
		t.Fatalf("bfhrf: %v\n%s", err, stderr)
	}
	w1, _ := startWorkerProcess(t)
	w2, _ := startWorkerProcess(t)
	coord := []string{"-workers", w1 + "," + w2, "-query", queries, "-batch", "3"}

	// The first flush writes the header, each later one a record: a crash
	// at flush 2 leaves no record durable, a crash at flush 4 leaves two.
	for _, c := range []struct{ crashAt, durable int }{{2, 0}, {4, 2}} {
		ck := filepath.Join(data, fmt.Sprintf("crash%d.ckpt", c.crashAt))
		_, stderr, code := runEnv(t, []string{fmt.Sprintf("BFHRF_FAULTS=checkpoint.write:crash@%d", c.crashAt)},
			"bfhrfd", append(coord, "-ref", refs, "-checkpoint", ck, "-checkpoint-interval", "1")...)
		if code != 137 {
			t.Fatalf("crash@%d: coordinator exited %d, want 137\n%s", c.crashAt, code, stderr)
		}
		got, stderr, code := runEnv(t, nil, "bfhrfd", append(coord, "-ref", refs, "-checkpoint", ck, "-resume")...)
		if code != 0 {
			t.Fatalf("crash@%d: resume exited %d\n%s", c.crashAt, code, stderr)
		}
		if got != want {
			t.Errorf("crash@%d: resumed coordinator output differs from bfhrf:\n%s\nvs\n%s", c.crashAt, got, want)
		}
		if line := fmt.Sprintf("%d queries already done", c.durable); !strings.Contains(stderr, line) {
			t.Errorf("crash@%d: resume stderr lacks %q:\n%s", c.crashAt, line, stderr)
		}

		_, stderr, code = runEnv(t, nil, "bfhrfd", append(coord, "-ref", refs2, "-checkpoint", ck, "-resume")...)
		if code == 0 || !strings.Contains(stderr, "mismatch") {
			t.Errorf("crash@%d: resume against other references exited %d, want a mismatch error:\n%s", c.crashAt, code, stderr)
		}
	}
}
