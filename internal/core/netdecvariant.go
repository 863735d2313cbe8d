package core

import (
	"fmt"
	"math"

	"deltacolor/graph"
	"deltacolor/internal/brooks"
	"deltacolor/internal/dist"
	"deltacolor/local"
)

// DeterministicNetDec runs the Theorem 21 algorithm ([PS95, Theorem 5],
// reproved in the paper via the layering technique):
//
//	(1) compute a network decomposition (dist.Decompose's seeded
//	    Miller–Peng–Xu low-diameter decomposition substitutes for the
//	    2^O(√log n) deterministic decomposition of [PS92]);
//	(2) build the base layer B0 as an (R, ·) ruling set computed greedily
//	    over the decomposition's color classes, R chosen so B0 members'
//	    Brooks recoloring balls are disjoint;
//	(3) peel layers B_1..B_s by distance to B0 and re-color them in reverse
//	    order, each a (deg+1)-list instance, solving the instances color
//	    class by color class over the decomposition;
//	(4) color B0 via the distributed Brooks theorem (Theorem 5).
//
// Compared to Deterministic (Theorem 4), the ruling set and the list
// colorings ride on the decomposition instead of the AGLP recursion and
// Linial color classes; experiment E8 compares the two round counts.
func DeterministicNetDec(g *graph.G, seed int64) (*Result, error) {
	delta, err := CheckNice(g, 3)
	if err != nil {
		return nil, err
	}
	acct := &local.Accountant{}
	startSpans(acct, "netdec")
	n := g.N()

	acct.Begin("decompose")
	// (1) Network decomposition with beta = Θ(1/log n).
	beta := 1.0 / math.Max(1, math.Log(float64(n+2)))
	dec := dist.Decompose(g, nil, beta, seed)
	if err := dist.VerifyDecomposition(g, nil, dec); err != nil {
		acct.End() // close "decompose" on the error path (spanpair)
		return nil, fmt.Errorf("netdec variant: %w", err)
	}
	acct.Charge("decomposition", dec.Rounds)

	// (2) B0: greedy (R, ·) ruling set over decomposition color classes.
	// Iterating one class costs one cluster-graph round = 2·MaxRadius+1
	// G-rounds, plus a distance-R probe per chosen candidate batch.
	rB := brooks.SearchRadius(n, delta)
	bigR := 6*rB + 3
	base := rulingSetViaDecomposition(g, dec, bigR)
	acct.Charge("ruling-set", dec.NumColors*(2*dec.MaxRadius+1+bigR))
	if len(base) == 0 {
		base = []int{0}
	}

	// (3) Layers by distance to B0, colored in reverse.
	layer := Layering(g, base, nil)
	s := 0
	for _, l := range layer {
		if l > s {
			s = l
		}
	}
	acct.Charge("layering", s)
	acct.End()

	colors := make([]int, n)
	for v := range colors {
		colors[v] = -1
	}
	lc := NewLayerColorer(g, delta, ListColorDeterministic, seed, acct)
	repairs, err := lc.ColorLayersReverse(colors, layer, s, "layers")
	if err != nil {
		return nil, err
	}

	// (4) B0 via Theorem 5 through the batch engine (independent
	// recolorings; spacing >= bigR puts them all in one batch).
	b0res, err := brooks.RepairHoles(g, colors, base, delta, seed+0xb0)
	if err != nil {
		return nil, fmt.Errorf("netdec variant: color B0: %w", err)
	}
	chargeRepairBatches(acct, "brooks-B0", b0res)

	rres, err := RepairUncolored(g, colors, delta, seed+0x4e9, acct)
	if err != nil {
		return nil, fmt.Errorf("netdec variant: %w", err)
	}
	repairs += rres.Fixed

	if err := dist.VerifyColoring(g, colors); err != nil {
		return nil, fmt.Errorf("netdec variant: %w", err)
	}
	out := &Result{
		Colors:  colors,
		Delta:   delta,
		Rounds:  acct.Total(),
		Phases:  acct.Phases(),
		Repairs: repairs,
	}
	out.addRepairStats(b0res)
	out.addRepairStats(rres)
	out.Span = acct.FinishSpans()
	return out, nil
}

// rulingSetViaDecomposition selects cluster centers class by class,
// keeping a center only when no previously chosen node lies within
// distance < bigR. The result is an independent-at-distance-bigR set; it
// need not dominate the graph (unreached nodes end up in high layers,
// which the layering pass still covers because Layering assigns -1 only
// to disconnected nodes — callers treat the whole reachable set).
//
// The blocking probe is symmetric — a candidate is rejected iff some
// already-chosen node lies within distance bigR-1 of it — so the default
// path runs one stepped distance-(bigR-1) flood from the chosen set per
// class (the real message-passing form, allocation-free int rounds) and
// only the intra-class additions are marked centrally as each center is
// accepted. The ablated path (SetSteppedGather(false)) is the original
// per-candidate central BFS probe; both produce the identical base set,
// and the manual round charge at the call site covers either form.
func rulingSetViaDecomposition(g *graph.G, dec *dist.Decomposition, bigR int) []int {
	var base []int
	chosen := make([]bool, g.N())
	if local.SteppedGatherEnabled() {
		fnet := local.NewNetwork(g, 1)
		for class := 0; class < dec.NumColors; class++ {
			blocked := local.FloodStepped(fnet, chosen, bigR-1)
			for ci, center := range dec.Centers {
				if dec.ClusterColor[ci] != class || blocked[center] {
					continue
				}
				chosen[center] = true
				base = append(base, center)
				for _, u := range g.BFSLimited(center, bigR-1).Order {
					blocked[u] = true
				}
			}
		}
		return base
	}
	for class := 0; class < dec.NumColors; class++ {
		for ci, center := range dec.Centers {
			if dec.ClusterColor[ci] != class {
				continue
			}
			ok := true
			res := g.BFSLimited(center, bigR-1)
			for _, u := range res.Order {
				if chosen[u] {
					ok = false
					break
				}
			}
			if ok {
				chosen[center] = true
				base = append(base, center)
			}
		}
	}
	return base
}
