package collection

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/newick"
	"repro/internal/tree"
)

func TestSourceLen(t *testing.T) {
	trees := make([]*tree.Tree, 7)
	for i := range trees {
		trees[i] = newick.MustParse("((A,B),(C,D));")
	}
	if n := sourceLen(FromTrees(trees)); n != 7 {
		t.Fatalf("sourceLen(slice) = %d, want 7", n)
	}
	if n := sourceLen(struct{ Source }{FromTrees(trees)}); n != -1 {
		t.Fatalf("sourceLen(non-counting) = %d, want -1", n)
	}
}

// poolText is n copies of one small statement, as a counting RawSource.
func poolText(t *testing.T, n int) *Text {
	t.Helper()
	text, err := FromNewick([]string{strings.Repeat("((A,B),(C,D));", n)})
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// goid is the calling goroutine's id, from its stack header.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestPoolOneWorkerRunsOnCaller: a pass the 64-trees-per-worker clamp
// gives one worker answers every item on the calling goroutine and starts
// no goroutine, whether the clamp came from a known size or the request.
func TestPoolOneWorkerRunsOnCaller(t *testing.T) {
	for _, c := range []struct {
		name string
		p    Pool
		src  Source
	}{
		{"clamped by size", Pool{Workers: 4}, poolText(t, 40)},
		{"one requested", Pool{Workers: 1}, struct{ Source }{poolText(t, 400)}},
		{"ramp below 128 trees", Pool{Workers: 4, Ramp: true}, struct{ Source }{poolText(t, 127)}},
	} {
		caller, before := goid(), runtime.NumGoroutine()
		answered := 0
		_, err := c.p.Run(context.Background(), c.src, func(int) {}, func(w, idx int, _ Item) error {
			if w != 0 || goid() != caller {
				return fmt.Errorf("item %d answered by worker %d on goroutine %s, not the caller's %s", idx, w, goid(), caller)
			}
			// Fewer is fine: a goroutine an earlier test left may be exiting.
			if n := runtime.NumGoroutine(); n > before {
				return fmt.Errorf("item %d: %d goroutines during the pass, %d before it", idx, n, before)
			}
			answered++
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := sourceLen(c.src); want > 0 && answered != want {
			t.Fatalf("%s: answered %d items, want %d", c.name, answered, want)
		}
	}
}

// TestPoolEarliestBadTree: of several failures, Run returns the one for
// the earliest item, whichever worker answered it and whichever failed
// first. Each helper's first item waits until the caller has answered an
// item itself, which it does only once the helpers' queue is full, so the
// caller's first item always comes after every helper's first.
func TestPoolEarliestBadTree(t *testing.T) {
	for _, c := range []struct {
		name                  string
		callerBad, helpersBad bool
	}{
		{"the caller answered it", true, false},
		{"a helper answered it", false, true},
		// The caller fails first, on a later item, while a helper still
		// holds the earlier bad one.
		{"a helper holds it while the caller fails later", true, true},
	} {
		for _, workers := range []int{2, 4} {
			var mu sync.Mutex
			first := map[int]bool{} // workers that have answered an item
			callerIdx := -1
			callerAnswered := make(chan struct{})
			bad := map[int]bool{}
			_, err := Pool{Workers: workers}.Run(context.Background(), poolText(t, 1000), func(int) {}, func(w, idx int, _ Item) error {
				mu.Lock()
				isFirst := !first[w]
				first[w] = true
				mu.Unlock()
				if !isFirst {
					return nil
				}
				fail := c.helpersBad
				if w == 0 {
					mu.Lock()
					callerIdx = idx
					mu.Unlock()
					close(callerAnswered)
					fail = c.callerBad
				} else {
					<-callerAnswered
				}
				if !fail {
					return nil
				}
				mu.Lock()
				bad[idx] = true
				mu.Unlock()
				return fmt.Errorf("bad tree %d", idx)
			})
			want := -1
			for idx := range bad {
				if want < 0 || idx < want {
					want = idx
				}
			}
			if c.callerBad && c.helpersBad && want >= callerIdx {
				t.Fatalf("%s, %d workers: earliest bad tree %d is not before the caller's %d", c.name, workers, want, callerIdx)
			}
			if err == nil || err.Error() != fmt.Sprintf("bad tree %d", want) {
				t.Fatalf("%s, %d workers: error %v, want bad tree %d", c.name, workers, err, want)
			}
		}
	}
}

// countingText counts the statements a pass reads.
type countingText struct {
	*Text
	reads int
}

func (c *countingText) NextRaw() (string, error) {
	c.reads++
	return c.Text.NextRaw()
}

// TestScanStopsAtFirstBadTree: a scan of a collection that turns to
// garbage after its third tree reports tree 4 and reads no more than the
// helpers' queue past it, not the rest of the collection.
func TestScanStopsAtFirstBadTree(t *testing.T) {
	stmts := make([]string, 20000)
	for i := range stmts {
		stmts[i] = "((A,B),(C,D);"
		if i < 3 {
			stmts[i] = "((A,B),(C,D));"
		}
	}
	text, err := FromNewick(stmts)
	if err != nil {
		t.Fatal(err)
	}
	for _, scan := range []func(...Source) error{
		func(s ...Source) error { _, err := ScanTaxa(s...); return err },
		func(s ...Source) error { _, err := ScanCommonTaxa(s...); return err },
	} {
		src := &countingText{Text: text}
		err := scan(src)
		if err == nil || !strings.HasPrefix(err.Error(), "collection: tree 4: newick: ") {
			t.Fatalf("scan error = %v, want one naming tree 4", err)
		}
		if limit := 3 + 2 + 4*runtime.GOMAXPROCS(0); src.reads > limit {
			t.Fatalf("scan read %d statements of %d; a scan that stops at tree 4 reads at most %d", src.reads, len(stmts), limit)
		}
	}
}
