package experiments

import (
	"context"
	"fmt"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distrib"
	"repro/internal/memprof"
	"repro/internal/tabfmt"
	"repro/internal/taxa"
)

// Distrib measures the §VII.B multi-node extension against single-node
// BFHRF on the same workload: per-worker-count wall time and an exactness
// check (the sharded result must match the local one bit for bit). Workers
// run in-process over real localhost TCP, so the numbers include
// serialization and transport, not network latency.
func (c *Config) Distrib() *Report {
	rep := &Report{ID: "Distrib_VIIB"}
	tab := tabfmt.New("§VII.B — multi-node BFHRF (localhost TCP, real RPC path)",
		"Workers", "n", "R", "Time(m)", "MaxDelta vs local")
	rep.Tables = append(rep.Tables, tab)

	spec := dataset.VariableTrees(100000)
	r := c.ScaleTrees(25000)
	path, ts, err := c.materialize(spec, r)
	if err != nil {
		rep.Notes = append(rep.Notes, err.Error())
		return rep
	}

	// Local reference run.
	localRes := c.RunPoint(BFHRF8, spec, r)
	if localRes.Err != nil {
		rep.Notes = append(rep.Notes, localRes.Err.Error())
		return rep
	}
	localAvgs, err := localAverages(path, ts)
	if err != nil {
		rep.Notes = append(rep.Notes, err.Error())
		return rep
	}
	tab.AddRow("local", spec.NumTaxa, r, fmt.Sprintf("%.4f", localRes.Minutes), "0")

	for _, workers := range []int{1, 2, 4} {
		addrs := make([]string, workers)
		listeners := make([]interface{ Close() error }, workers)
		ok := true
		for i := range addrs {
			l, err := distrib.Listen("127.0.0.1:0")
			if err != nil {
				rep.Notes = append(rep.Notes, err.Error())
				ok = false
				break
			}
			listeners[i] = l
			addrs[i] = l.Addr().String()
		}
		if !ok {
			break
		}
		coord, err := distrib.Dial(addrs)
		if err != nil {
			rep.Notes = append(rep.Notes, err.Error())
			break
		}
		var got []float64
		m := memprof.Measure(func() error {
			refs, err := collection.OpenFile(path)
			if err != nil {
				return err
			}
			defer refs.Close()
			qs, err := collection.OpenFile(path)
			if err != nil {
				return err
			}
			defer qs.Close()
			if err := coord.Load(refs, ts, false); err != nil {
				return err
			}
			out, err := coord.AverageRFContext(context.Background(), qs)
			if err != nil {
				return err
			}
			got = make([]float64, len(out.Results))
			for _, x := range out.Results {
				got[x.Index] = x.AvgRF
			}
			return nil
		})
		coord.Close()
		for _, l := range listeners {
			l.Close()
		}
		if m.Err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("workers=%d: %v", workers, m.Err))
			continue
		}
		tab.AddRow(workers, spec.NumTaxa, r, fmt.Sprintf("%.4f", m.Minutes()),
			fmt.Sprintf("%.2g", maxDelta(got, localAvgs)))
	}
	rep.Notes = append(rep.Notes,
		"MaxDelta must be 0: sharded frequency sums fold exactly; time includes Newick serialization over RPC",
		"at laptop scale serialization dominates and each added worker adds query fan-out cost; the mode pays off when R exceeds one node's memory, which is its purpose (§VII.B)")
	return rep
}

// localAverages computes the single-node BFHRF averages for the exactness
// check.
func localAverages(path string, ts *taxa.Set) ([]float64, error) {
	refs, err := collection.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer refs.Close()
	qs, err := collection.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer qs.Close()
	h, err := core.Build(refs, ts, core.BuildOptions{RequireComplete: true})
	if err != nil {
		return nil, err
	}
	res, err := h.AverageRF(qs, core.QueryOptions{RequireComplete: true})
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(res))
	for _, x := range res {
		out[x.Index] = x.AvgRF
	}
	return out, nil
}
