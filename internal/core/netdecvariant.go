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
// Every network the run builds is made with cfg.
func DeterministicNetDec(g *graph.G, seed int64, cfg local.Config) (*Result, error) {
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
	base := rulingSetViaDecomposition(g, dec, bigR, cfg)
	acct.Charge("ruling-set", dec.NumColors*(2*dec.MaxRadius+1+bigR))
	if len(base) == 0 {
		base = []int{0}
	}

	// (3)–(4) Layers by distance to B0 colored in reverse, then B0 via
	// Theorem 5 (spacing >= bigR puts every B0 repair in one batch).
	layer, s := peelLayers(g, base, acct)
	acct.End()
	return colorFromBase(g, delta, base, layer, s, seed, cfg, acct, "netdec variant")
}

// rulingSetViaDecomposition selects cluster centers class by class,
// keeping a center only when no previously chosen node lies within
// distance < bigR. The result is an independent-at-distance-bigR set; it
// need not dominate the graph (unreached nodes end up in high layers,
// which the layering pass still covers because Layering assigns -1 only
// to disconnected nodes — callers treat the whole reachable set).
//
// A candidate is rejected iff some already-chosen node lies within
// distance bigR-1 of it. That test is symmetric, so each class runs one
// stepped distance-(bigR-1) flood from the chosen set (the real
// message-passing form, allocation-free int rounds), and only the
// intra-class additions are marked centrally as each center is accepted.
// The manual round charge at the call site covers the floods.
func rulingSetViaDecomposition(g *graph.G, dec *dist.Decomposition, bigR int, cfg local.Config) []int {
	var base []int
	chosen := make([]bool, g.N())
	fnet := cfg.NewNetwork(g, 1)
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
