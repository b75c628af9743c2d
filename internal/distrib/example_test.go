package distrib_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/collection"
	"repro/internal/distrib"
	"repro/internal/newick"
	"repro/internal/tree"
)

func mustParse(newicks []string) []*tree.Tree {
	trees := make([]*tree.Tree, len(newicks))
	for i, s := range newicks {
		t, err := newick.Parse(s)
		if err != nil {
			log.Fatal(err)
		}
		trees[i] = t
	}
	return trees
}

// Example runs the full multi-node pipeline in one process: two workers
// on loopback TCP, a coordinator that shards the references across them,
// and a scatter-gather query whose folded result is exactly the
// single-node answer.
func Example() {
	// Two workers, as `bfhrfd -serve` would start them.
	w1, err := distrib.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer w1.Close()
	w2, err := distrib.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer w2.Close()

	coord, err := distrib.Dial([]string{w1.Addr().String(), w2.Addr().String()})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()

	refs := mustParse([]string{
		"((A,B),(C,D),E);",
		"((A,B),(C,E),D);",
		"((A,C),(B,D),E);",
		"((A,D),(B,C),E);",
	})
	src := collection.FromTrees(refs)
	ts, err := collection.ScanTaxa(src)
	if err != nil {
		log.Fatal(err)
	}
	coord.ChunkSize = 2 // 2 chunks: each worker holds half the references
	if err := coord.Load(src, ts, false); err != nil {
		log.Fatal(err)
	}

	queries := mustParse([]string{"((A,B),(C,D),E);"})
	results, err := coord.AverageRFContext(context.Background(), collection.FromTrees(queries))
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results.Results {
		fmt.Printf("query %d: avgRF %.2f over %d workers\n", r.Index, r.AvgRF, coord.NumWorkers())
	}
	// Output:
	// query 0: avgRF 2.50 over 2 workers
}
