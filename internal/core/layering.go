// Package core implements the paper's Δ-coloring algorithms: the layering
// technique (Section 3), the deterministic algorithm of Theorem 4, the
// network-decomposition variant of Theorem 21, and the randomized
// small-Δ/large-Δ algorithms of Theorems 1 and 3 (Section 4) with their
// DCC-removal, marking/T-node and shattering phases.
package core

import (
	"fmt"

	"deltacolor/graph"
	"deltacolor/internal/brooks"
	"deltacolor/internal/dist"
	"deltacolor/local"
)

// Layering assigns every node of a restricted node set its distance to a
// base set, producing the layers B_0, B_1, ..., B_s of Section 3.
//
// layer[v] = dist(v, base) measured within G[restrict] when restrict is
// non-nil (otherwise in G); -1 for unreachable or non-restricted nodes.
func Layering(g *graph.G, base []int, restrict []bool) []int {
	work := g
	if restrict != nil {
		work = maskGraph(g, restrict)
	}
	dist, _ := work.MultiSourceDist(base)
	if restrict != nil {
		for v := range dist {
			if !restrict[v] {
				dist[v] = -1
			}
		}
	}
	return dist
}

// maskGraph returns g with edges incident to non-restricted nodes removed.
func maskGraph(g *graph.G, restrict []bool) *graph.G {
	sub := graph.New(g.N())
	for _, e := range g.Edges() {
		if restrict[e[0]] && restrict[e[1]] {
			sub.MustEdge(e[0], e[1])
		}
	}
	return sub
}

// ListColorMode selects the list-coloring subroutine used when re-coloring
// layers (stand-ins for Theorem 18's deterministic algorithm and Theorem
// 19's randomized one; see the ListColor* primitives in internal/dist).
type ListColorMode int

const (
	// ListColorRandomized uses random color trials (O(log n) w.h.p.).
	ListColorRandomized ListColorMode = iota + 1
	// ListColorDeterministic schedules by the classes of a Linial coloring.
	ListColorDeterministic
)

// LayerColorer colors layered node sets in reverse layer order, one
// (deg+1)-list-coloring instance per layer, charging rounds to the
// accountant. It owns the base coloring needed by the deterministic mode
// and a single network over g that every layer instance reuses (reseeded
// per layer) — the port tables are built once, not once per phase.
type LayerColorer struct {
	g          *graph.G
	delta      int
	mode       ListColorMode
	seed       int64
	acct       *local.Accountant
	net        *local.Network
	baseColors []int
	baseK      int
}

// NewLayerColorer prepares a colorer. In deterministic mode it computes a
// Linial base coloring up front (charged to the accountant once).
func NewLayerColorer(g *graph.G, delta int, mode ListColorMode, seed int64, acct *local.Accountant) *LayerColorer {
	lc := &LayerColorer{g: g, delta: delta, mode: mode, seed: seed, acct: acct}
	lc.net = local.NewNetwork(g, seed)
	if mode == ListColorDeterministic {
		colors, k, rounds := dist.Linial(lc.net)
		lc.baseColors, lc.baseK = colors, k
		acct.Charge("linial", rounds)
	}
	return lc
}

// ColorLayersReverse colors every node with layer[v] in [1, s] (and
// colors[v] < 0) in decreasing layer order, writing into colors. Layer 0 is
// the caller's responsibility (base layers are colored with different
// techniques). Nodes whose list instance turns out infeasible are repaired
// with the distributed Brooks procedure and counted in repairs.
func (lc *LayerColorer) ColorLayersReverse(colors []int, layer []int, s int, phase string) (repairs int, err error) {
	lc.acct.Begin(phase)
	defer lc.acct.End()
	for i := s; i >= 1; i-- {
		active := make([]bool, lc.g.N())
		any := false
		for v := range layer {
			if layer[v] == i && colors[v] < 0 {
				active[v] = true
				any = true
			}
		}
		if !any {
			continue
		}
		li := dist.NewListInstance(lc.g, active, colors, lc.delta)
		got, rounds, solveErr := lc.solve(li, int64(i))
		lc.acct.Charge(fmt.Sprintf("%s[%d]", phase, i), rounds)
		if solveErr != nil {
			// Infeasible or unlucky instance: repair node-by-node with the
			// Brooks token procedure at the end; mark and continue.
			repairs += repairDefer(colors, active)
			continue
		}
		for v := range got {
			if active[v] {
				colors[v] = got[v]
			}
		}
	}
	return repairs, nil
}

// solve runs the configured list-coloring subroutine on the shared
// network, reseeded per layer (the per-layer seeds are unchanged from the
// build-a-network-per-layer era, so colorings are byte-identical — only
// the repeated O(n + Σ deg) construction cost is gone).
func (lc *LayerColorer) solve(li *dist.ListInstance, salt int64) ([]int, int, error) {
	if err := li.CheckDegPlusOne(lc.g); err != nil {
		return nil, 0, err
	}
	lc.net.Reseed(lc.seed*31 + salt)
	switch lc.mode {
	case ListColorDeterministic:
		return dist.ListColorDeterministic(lc.net, li, lc.baseColors, lc.baseK)
	default:
		return dist.ListColorRandomized(lc.net, li)
	}
}

// repairDefer leaves the active nodes uncolored (colors[v] stays -1) so the
// final repair pass can fix them; returns how many were deferred.
func repairDefer(colors []int, active []bool) int {
	n := 0
	for v := range active {
		if active[v] && colors[v] < 0 {
			n++
		}
	}
	return n
}

// RepairUncolored completes any remaining uncolored nodes with the batched
// distributed Brooks engine (Theorem 5 walks scheduled by an MIS over
// their repair balls, see brooks.RepairHoles). Each batch of
// pairwise-independent repairs is charged its max rounds plus the
// scheduling cost — not the sum the pre-batching safety net billed. Used
// as the safety net that makes every algorithm total on all nice inputs.
func RepairUncolored(g *graph.G, colors []int, delta int, seed int64, acct *local.Accountant) (*brooks.BatchResult, error) {
	res, err := brooks.Repair(g, colors, delta, seed)
	if err != nil {
		return res, fmt.Errorf("repair: %w", err)
	}
	chargeRepairBatches(acct, "repair", res)
	return res, nil
}

// chargeRepairBatches records a batched repair run's per-batch costs under
// phase names "<prefix>-sched[i]" / "<prefix>-batch[i]".
func chargeRepairBatches(acct *local.Accountant, prefix string, res *brooks.BatchResult) {
	acct.Begin(prefix)
	defer acct.End()
	for i, b := range res.Batches {
		if b.SchedRounds > 0 {
			acct.Charge(fmt.Sprintf("%s-sched[%d]", prefix, i), b.SchedRounds)
		}
		acct.Charge(fmt.Sprintf("%s-batch[%d]", prefix, i), b.Rounds)
	}
}
