// Package baseline implements the comparator the paper improves on: a
// Panconesi–Srinivasan-style Δ-coloring [PS92, PS95] built from the same
// primitive the original uses — start from a (Δ+1)-coloring and repair the
// extra color class by token-based augmenting recolorings, scheduled so
// that concurrent repairs never interact. Its round complexity is
// polylogarithmic with a higher exponent than the paper's algorithms,
// which is exactly the gap experiment E4 measures.
//
// This is a faithful-in-spirit reimplementation, not a port: the
// original's network-decomposition machinery is replaced by (a) greedy
// recoloring sweeps that eliminate the easy conflicts and (b) a
// distance-scheduled sequence of Brooks token walks for the hard ones.
package baseline

import (
	"fmt"

	"deltacolor/graph"
	"deltacolor/internal/brooks"
	"deltacolor/internal/dist"
	"deltacolor/local"
)

// Result mirrors core.Result for the baseline.
type Result struct {
	Colors []int
	Delta  int
	Rounds int
	Phases []local.PhaseStat
	// Stuck is the number of nodes that needed a token walk (could not be
	// fixed by greedy sweeps).
	Stuck int
	// RepairBatches / RepairBatchRounds mirror core.Result: the batch
	// count and per-batch charged rounds of the token-walk repair engine.
	RepairBatches     int
	RepairBatchRounds []int
	// Span is the run's nested timeline, collected only when a default
	// tracer is installed (local.SetDefaultTracer); nil otherwise.
	Span *local.Span
}

// Color computes a Δ-coloring of a nice graph with the baseline algorithm:
//
//	(1) Linial + greedy reduction -> (Δ+1)-coloring;
//	(2) greedy sweeps: nodes holding color Δ take a free color in [0, Δ)
//	    when one exists (scheduled by the O(Δ²) base coloring);
//	(3) the remaining "rainbow" nodes are uncolored and repaired with
//	    Brooks token walks, scheduled by a distance coloring of their
//	    interaction graph so non-interacting walks run in parallel.
func Color(g *graph.G, seed int64) (*Result, error) {
	delta := g.MaxDegree()
	if delta < 3 {
		return nil, fmt.Errorf("baseline: Δ=%d < 3", delta)
	}
	acct := &local.Accountant{}
	if tr := local.DefaultTracer(); tr != nil {
		acct.StartSpans("baseline", tr)
	}
	n := g.N()

	net := local.NewNetwork(g, seed)
	base, k, r1 := dist.Linial(net)
	acct.Charge("linial", r1)
	net2 := local.NewNetwork(g, seed+1)
	colors, r2, err := dist.ReduceColors(net2, base, k, delta+1)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	acct.Charge("reduce", r2)

	// Greedy sweeps: iterate the base color classes; a class node holding
	// color Δ recolors to a free color in [0, Δ) when available. One sweep
	// costs k rounds; conflicts strictly decrease, and after the first
	// sweep only "rainbow" nodes (all Δ colors in the neighborhood) remain.
	sweepRounds := 0
	for sweep := 0; sweep < 2; sweep++ {
		changed := false
		for class := 0; class < k; class++ {
			for v := 0; v < n; v++ {
				if base[v] != class || colors[v] != delta {
					continue
				}
				if c := freeColor(g, colors, v, delta); c >= 0 {
					colors[v] = c
					changed = true
				}
			}
		}
		sweepRounds += k
		if !changed {
			break
		}
	}
	acct.Charge("greedy-sweeps", sweepRounds)

	// Hard cases: uncolor and run Brooks token walks through the batched
	// repair engine. The stuck nodes form an independent set (they all
	// hold color Δ); the engine schedules an MIS over their realized
	// repair balls per batch and charges the max walk length per batch,
	// replacing the old greedy distance-coloring scheduler with the same
	// accounting discipline.
	var stuck []int
	for v := 0; v < n; v++ {
		if colors[v] == delta {
			colors[v] = -1
			stuck = append(stuck, v)
		}
	}
	var rres *brooks.BatchResult
	if len(stuck) > 0 {
		var err error
		rres, err = brooks.RepairHoles(g, colors, stuck, delta, seed+2)
		if err != nil {
			return nil, fmt.Errorf("baseline: token walks: %w", err)
		}
		acct.Begin("token-walks")
		for bi, b := range rres.Batches {
			if b.SchedRounds > 0 {
				acct.Charge(fmt.Sprintf("token-sched[%d]", bi), b.SchedRounds)
			}
			acct.Charge(fmt.Sprintf("token-batch[%d]", bi), b.Rounds)
		}
		acct.End()
	}

	if err := dist.VerifyColoring(g, colors); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	for v := 0; v < n; v++ {
		if colors[v] >= delta {
			return nil, fmt.Errorf("baseline: node %d uses color %d >= Δ", v, colors[v])
		}
	}
	out := &Result{
		Colors: colors,
		Delta:  delta,
		Rounds: acct.Total(),
		Phases: acct.Phases(),
		Stuck:  len(stuck),
	}
	if rres != nil {
		out.RepairBatches = len(rres.Batches)
		out.RepairBatchRounds = rres.BatchRounds()
	}
	out.Span = acct.FinishSpans()
	return out, nil
}

func freeColor(g *graph.G, colors []int, v, delta int) int {
	used := make([]bool, delta)
	for _, u := range g.Neighbors(v) {
		if c := colors[u]; c >= 0 && c < delta {
			used[c] = true
		}
	}
	for c := 0; c < delta; c++ {
		if !used[c] {
			return c
		}
	}
	return -1
}
