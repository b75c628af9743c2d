package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// lockedBuffer is a bytes.Buffer safe to read while the child writes it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor polls cond every 10ms until it holds or d elapses.
func waitFor(d time.Duration, cond func() bool) bool {
	for end := time.Now().Add(d); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// TestSecondSignalKills: the first SIGINT asks for a graceful stop, but a
// run stalled in a checkpoint flush cannot get there; the second SIGINT
// must then kill the process rather than be swallowed.
func TestSecondSignalKills(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()
	rp := filepath.Join(dir, "refs.nwk")
	ck := filepath.Join(dir, "run.ckpt")
	writeCollection(t, rp, 8, 12, 15)

	cmd := exec.Command(bin, "-ref", rp, "-cpus", "1",
		"-checkpoint", ck, "-checkpoint-interval", "1", "-o", filepath.Join(dir, "out.tsv"))
	// Every checkpoint flush, the header's first, stalls for a minute.
	cmd.Env = append(os.Environ(), "BFHRF_FAULTS=checkpoint.write:delay@1x*:1m")
	var stderr lockedBuffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() { cmd.Wait(); close(exited) }()
	defer func() {
		cmd.Process.Kill()
		<-exited
	}()

	// The checkpoint file exists once the run is past its signal setup.
	if !waitFor(30*time.Second, func() bool { _, err := os.Stat(ck); return err == nil }) {
		t.Fatalf("run never created its checkpoint; stderr:\n%s", stderr.String())
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if !waitFor(10*time.Second, func() bool { return strings.Contains(stderr.String(), "interrupted") }) {
		t.Fatalf("first SIGINT printed no \"interrupted\" line; stderr:\n%s", stderr.String())
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatalf("second SIGINT was swallowed: still running 5s later; stderr:\n%s", stderr.String())
	}
	ws := cmd.ProcessState.Sys().(syscall.WaitStatus)
	if !ws.Signaled() || ws.Signal() != syscall.SIGINT {
		t.Fatalf("process ended with %v, want killed by SIGINT; stderr:\n%s", cmd.ProcessState, stderr.String())
	}
}
