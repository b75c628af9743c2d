package repro

import (
	"fmt"
	"strings"
	"testing"
)

// The -help audit: every registered flag of every binary must appear in
// its usage output, and — the other direction — every flag a user is
// documented to have must actually be registered. The lists are
// hardcoded on purpose: adding a flag without updating this test (and
// therefore without thinking about its usage string) is the regression
// this guards against.

// sharedProfFlags are registered by internal/profhook on bfhrf, bfhrfd
// and rfbench.
var sharedProfFlags = []string{"cpuprofile", "memprofile", "trace"}

// sharedLogFlags are registered by internal/obs on the same binaries.
var sharedLogFlags = []string{"log-format", "v"}

// sharedTraceFlags are the distributed-tracing flags registered by
// internal/obs on bfhrf and bfhrfd.
var sharedTraceFlags = []string{"trace-out", "trace-sample", "slow-query"}

func TestCLIHelpMentionsEveryFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests in -short mode")
	}
	cases := []struct {
		bin   string
		flags []string
	}{
		{"bfhrf", append([]string{
			"ref", "query", "cpus", "variant", "min-split", "max-split",
			"intersect-taxa", "best", "annotate", "version",
			"query-cache", "query-cache-size", "query-cache-bytes",
			"o", "checkpoint", "checkpoint-interval", "resume",
			"skip-bad-trees", "bad-tree-log",
			"max-taxa", "max-tree-bytes", "max-input-bytes",
			"backend", "hash-shards",
			"save-bfh", "load-bfh", "delta-add", "delta-retire", "compact-bfh",
		}, append(sharedProfFlags, append(sharedLogFlags, sharedTraceFlags...)...)...)},
		{"bfhrfd", append([]string{
			"serve", "workers", "ref", "query", "chunk", "batch",
			"admin", "version",
			"rpc-timeout", "retries", "partial-results", "health-interval",
			"query-cache", "query-cache-size", "query-cache-bytes",
			"o", "checkpoint", "checkpoint-interval", "resume",
			"skip-bad-trees", "max-taxa", "max-tree-bytes", "max-input-bytes",
			"save-bfh", "load-bfh",
			"mutex-profile-fraction", "block-profile-rate",
			"serve-http", "collections", "collections-root", "collection-name",
			"max-inflight", "queue-depth", "tenant-rate", "tenant-burst",
			"request-max-bytes", "query-deadline", "drain-timeout",
		}, append(sharedProfFlags, append(sharedLogFlags, sharedTraceFlags...)...)...)},
		{"rfdist", append([]string{
			"a", "b", "matrix", "avg", "cluster", "linkage", "phylip",
			"consensus", "t", "greedy", "draw", "version",
		}, sharedLogFlags...)},
		{"rfbench", append([]string{
			"exp", "scale", "engines", "query-cap", "mem-budget", "csv",
			"work", "json", "compare", "with", "threshold", "reps", "version",
		}, append(sharedProfFlags, sharedLogFlags...)...)},
		{"treegen", []string{
			"dataset", "n", "r", "seed", "random", "shape", "queries", "moves",
			"out", "mean-branch",
		}},
		{"tracevet", []string{"summary", "min-traces"}},
	}
	for _, c := range cases {
		t.Run(c.bin, func(t *testing.T) {
			// flag prints usage on stderr and exits 2 for -help.
			_, usage, _ := run(t, c.bin, "-help")
			if !strings.Contains(usage, "Usage") {
				t.Fatalf("%s -help produced no usage text:\n%s", c.bin, usage)
			}
			for _, name := range c.flags {
				if !strings.Contains(usage, fmt.Sprintf("-%s", name)) {
					t.Errorf("%s -help does not mention -%s", c.bin, name)
				}
			}
			// The reverse direction: no flag registered beyond the audited
			// list. Usage lines look like "  -name value" or "  -name\t...".
			audited := make(map[string]bool, len(c.flags))
			for _, name := range c.flags {
				audited[name] = true
			}
			for _, line := range strings.Split(usage, "\n") {
				trimmed := strings.TrimSpace(line)
				if !strings.HasPrefix(trimmed, "-") || strings.HasPrefix(trimmed, "--") {
					continue
				}
				name := strings.Fields(strings.TrimPrefix(trimmed, "-"))[0]
				// "-v" renders as "-v\tverbosity..." — strip a glued tab part.
				if i := strings.IndexByte(name, '\t'); i >= 0 {
					name = name[:i]
				}
				if !audited[name] {
					t.Errorf("%s registers -%s but the help audit does not list it", c.bin, name)
				}
			}
		})
	}
}

// TestCLIHelpFlagDescriptionsCurrent spot-checks usage strings that have
// drifted before: behavior-bearing phrases must survive flag edits.
func TestCLIHelpFlagDescriptionsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests in -short mode")
	}
	checks := []struct {
		bin, substr string
	}{
		{"bfhrf", "clamped to the collection size"}, // -cpus is not a hard worker count
		{"bfhrf", "losslessly compressed keys"},     // -backend succinct is the §IX key compression
		{"bfhrf", "crash-safe resume"},              // -checkpoint is durable, not a cache
		{"bfhrf", "fingerprint-verified"},           // -resume refuses foreign checkpoints
		{"bfhrf", "atomic"},                         // -o never leaves partial output
		{"bfhrfd", "coordinator mode"},              // coordinator-only flags are annotated
		{"bfhrfd", "per-RPC deadline"},
		{"bfhrfd", "transient failures"},
		{"bfhrfd", "surviving shards"},
		{"bfhrf", "head-sampling probability"}, // -trace-sample is a probability, not a ratio denominator
		{"bfhrf", "slow-query diagnostics"},    // -slow-query keeps AND logs
		{"bfhrfd", "/debug/pprof/mutex"},       // -mutex-profile-fraction feeds the pprof endpoint
		{"bfhrfd", "shed with 503"},            // -queue-depth overflow is shed, not queued
		{"bfhrfd", "X-Tenant"},                 // -tenant-rate keys on the tenant header
		{"rfbench", "exit 3 on regression"},
	}
	for _, c := range checks {
		_, usage, _ := run(t, c.bin, "-help")
		if !strings.Contains(usage, c.substr) {
			t.Errorf("%s -help no longer documents %q", c.bin, c.substr)
		}
	}
}
