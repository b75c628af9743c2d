// Package faultinject is a deterministic, stdlib-only fault-injection
// registry for chaos testing the data and lifecycle layers. Production
// code threads named injection points (Hit, Reader) through its I/O,
// parse, RPC and checkpoint paths; tests — or an operator via the
// BFHRF_FAULTS environment variable — arm those points with error,
// delay, short-read or crash-at-nth-hit plans. Disarmed (the default),
// every point compiles down to one atomic load and a nil return, so the
// hooks are safe to leave in hot-ish paths permanently.
//
// Plans are deterministic: a plan fires on an exact hit number, and the
// Schedule helper derives a reproducible random fault plan from a seed,
// which is what the chaos suite sweeps over. There is no probabilistic
// state anywhere, so a failing schedule replays exactly.
//
// The environment grammar is a comma- or semicolon-separated list of
// entries, each "point:kind@n[xTIMES][:arg]":
//
//	BFHRF_FAULTS='parse.tree:error@3'           error on the 3rd hit
//	BFHRF_FAULTS='io.read:delay@2x5:10ms'       10ms delay on hits 2..6
//	BFHRF_FAULTS='checkpoint.write:crash@2'     exit(137) on the 2nd hit
//	BFHRF_FAULTS='rpc.send:error@1x*:transient' transient errors forever
//	BFHRF_FAULTS='io.read:short@4'              stream ends early at hit 4
package faultinject

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Well-known injection points. The constants document where each point
// lives; arming an unknown point name is allowed (it just never fires).
const (
	// PointIOOpen fires when a tree collection file is (re)opened.
	PointIOOpen = "io.open"
	// PointIORead fires on every buffered read from a collection file.
	PointIORead = "io.read"
	// PointParseTree fires before each tree is parsed (newick and nexus).
	PointParseTree = "parse.tree"
	// PointRPCSend fires before each coordinator-side RPC attempt.
	PointRPCSend = "rpc.send"
	// PointCheckpointWrite fires at each checkpoint flush.
	PointCheckpointWrite = "checkpoint.write"
	// PointCheckpointRead fires per record while loading a checkpoint.
	PointCheckpointRead = "checkpoint.read"
	// PointOutputWrite fires when an atomic output file is committed.
	PointOutputWrite = "output.write"
	// PointCachePut fires before a result is inserted into the query-side
	// topology cache — delay plans widen the compute-to-publish window the
	// eviction hammer races over, and crash plans model a process dying
	// between computing a result and caching it.
	PointCachePut = "cache.put"
	// PointSnapWrite fires per section while a BFH snapshot part is
	// written — crash plans model a process dying mid-file, which must
	// leave the published epoch untouched.
	PointSnapWrite = "snap.write"
	// PointSnapRename fires before an epoch directory rename and before
	// the CURRENT pointer update — the two publish steps whose crash
	// windows the epoch recovery sweep covers.
	PointSnapRename = "snap.rename"
	// PointSnapReap fires before an obsolete epoch directory is removed.
	PointSnapReap = "snap.reap"
	// PointServeAdmit fires in the query service after admission checks
	// but before any body parsing — error plans model an admission-layer
	// rejection (shed with 503), delay plans hold requests in the
	// admitted-but-not-parsing window that the overload tests widen.
	PointServeAdmit = "serve.admit"
	// PointServeQuery fires just before a catalog backend executes an
	// admitted query — error plans turn into clean 502 responses, delay
	// plans pin execution slots to force queue growth.
	PointServeQuery = "serve.query"
	// PointWorkerTree fires in a distrib worker once per tree it is about
	// to fold into its shard (Load) or probe against it (Query).
	PointWorkerTree = "worker.tree"
)

// Kind enumerates what an armed plan does when it fires.
type Kind int

const (
	// KindError makes the point return an injected error.
	KindError Kind = iota
	// KindDelay makes the point sleep, then proceed normally.
	KindDelay
	// KindShortRead makes a Reader-wrapped stream end early (premature
	// io.EOF — a truncated file). At non-reader points it acts like
	// KindError.
	KindShortRead
	// KindCrash terminates the process immediately (models SIGKILL:
	// no flushes, no deferred cleanup).
	KindCrash
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindDelay:
		return "delay"
	case KindShortRead:
		return "short"
	case KindCrash:
		return "crash"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Plan arms one injection point with one deterministic fault.
type Plan struct {
	// Point is the injection point name (see the Point* constants).
	Point string
	// Kind selects the fault behaviour.
	Kind Kind
	// Hit is the 1-based hit number on which the plan first fires
	// (0 and 1 both mean the first hit).
	Hit int
	// Times is how many consecutive hits fire, starting at Hit.
	// 0 and 1 both mean once; negative means every hit from Hit on.
	Times int
	// Delay is the sleep for KindDelay (default 1ms).
	Delay time.Duration
	// Transient marks injected errors as infrastructure-style failures:
	// they wrap io.ErrUnexpectedEOF, which retry layers classify as
	// retryable. Permanent (default) injected errors wrap nothing.
	Transient bool
	// ExitCode is the status for KindCrash (default 137, mirroring
	// SIGKILL's shell convention).
	ExitCode int
}

func (p Plan) firstHit() int64 {
	if p.Hit <= 1 {
		return 1
	}
	return int64(p.Hit)
}

func (p Plan) fires(n int64) bool {
	first := p.firstHit()
	if n < first {
		return false
	}
	if p.Times < 0 {
		return true
	}
	times := int64(p.Times)
	if times < 1 {
		times = 1
	}
	return n < first+times
}

func (p Plan) delay() time.Duration {
	if p.Delay <= 0 {
		return time.Millisecond
	}
	return p.Delay
}

func (p Plan) exitCode() int {
	if p.ExitCode == 0 {
		return 137
	}
	return p.ExitCode
}

// Error is the error injected by an armed error or short-read plan.
type Error struct {
	// Point is where the fault fired; N is the hit number.
	Point string
	N     int64
	kind  Kind
	cause error
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: injected %s at %s (hit %d)", e.kind, e.Point, e.N)
}

// Unwrap exposes the cause (io.ErrUnexpectedEOF for transient plans) so
// retry layers classify injected faults like real ones.
func (e *Error) Unwrap() error { return e.cause }

// Kind reports the fault kind that produced this error.
func (e *Error) Kind() Kind { return e.kind }

// registry is the armed state. The armed flag is the only thing the
// disarmed fast path touches; everything else sits behind the mutex and
// is read-mostly while a schedule is active.
var (
	armed atomic.Bool
	mu    sync.RWMutex
	table map[string][]*armedPlan

	// exit is swapped out by tests of the crash path.
	exit = os.Exit
)

type armedPlan struct {
	Plan
	hits atomic.Int64
}

func init() {
	if spec := os.Getenv("BFHRF_FAULTS"); spec != "" {
		if err := ArmSpec(spec); err != nil {
			fmt.Fprintf(os.Stderr, "faultinject: ignoring BFHRF_FAULTS: %v\n", err)
		}
	}
}

// Arm replaces the current schedule with plans and enables injection.
// Arming an empty list disarms.
func Arm(plans ...Plan) {
	mu.Lock()
	table = make(map[string][]*armedPlan, len(plans))
	for _, p := range plans {
		table[p.Point] = append(table[p.Point], &armedPlan{Plan: p})
	}
	n := len(plans)
	mu.Unlock()
	armed.Store(n > 0)
}

// Disarm clears the schedule; every point returns to the zero-cost path.
func Disarm() {
	mu.Lock()
	table = nil
	mu.Unlock()
	armed.Store(false)
}

// Armed reports whether any schedule is active.
func Armed() bool { return armed.Load() }

// HitCount returns how many times point has been hit under the current
// schedule (0 when the point has no armed plan). For tests.
func HitCount(point string) int64 {
	mu.RLock()
	defer mu.RUnlock()
	for _, p := range table[point] {
		return p.hits.Load()
	}
	return 0
}

// Hit consults the schedule for point and applies the first firing plan:
// returns an injected error, sleeps, or terminates the process. Disarmed
// it is a single atomic load.
func Hit(point string) error {
	if !armed.Load() {
		return nil
	}
	return hitSlow(point)
}

func hitSlow(point string) error {
	mu.RLock()
	plans := table[point]
	mu.RUnlock()
	for _, p := range plans {
		n := p.hits.Add(1)
		if !p.fires(n) {
			continue
		}
		switch p.Kind {
		case KindDelay:
			time.Sleep(p.delay())
		case KindCrash:
			fmt.Fprintf(os.Stderr, "faultinject: crash at %s (hit %d)\n", point, n)
			exit(p.exitCode())
		default:
			var cause error
			if p.Transient {
				cause = io.ErrUnexpectedEOF
			}
			return &Error{Point: point, N: n, kind: p.Kind, cause: cause}
		}
	}
	return nil
}

// Reader wraps r with point's read faults: error and delay plans fire per
// Read call, and a short-read plan ends the stream early with a clean
// io.EOF — the signature of a truncated file. Disarmed, the wrapper costs
// one atomic load per Read (which the callers buffer, so per ~4KiB chunk).
func Reader(point string, r io.Reader) io.Reader {
	return &faultReader{point: point, r: r}
}

type faultReader struct {
	point string
	r     io.Reader
	cut   bool
}

// Read implements io.Reader with the point's faults applied.
func (f *faultReader) Read(p []byte) (int, error) {
	if f.cut {
		return 0, io.EOF
	}
	if armed.Load() {
		if err := hitSlow(f.point); err != nil {
			var ie *Error
			if asError(err, &ie) && ie.kind == KindShortRead {
				f.cut = true
				return 0, io.EOF
			}
			return 0, err
		}
	}
	return f.r.Read(p)
}

// asError is errors.As specialized to *Error, avoiding the reflection
// cost of the generic helper on the read path.
func asError(err error, target **Error) bool {
	ie, ok := err.(*Error)
	if ok {
		*target = ie
	}
	return ok
}
