package core

import (
	"deltacolor/graph"
)

// DetRulingSet computes a (k, (k-1)·ceil(log2 n)) ruling set of G[active]
// deterministically with the classic Awerbuch–Goldberg–Luby–Plotkin bit
// recursion: split candidates on the highest ID bit, recursively compute
// ruling sets of both halves in parallel, keep the 0-side and add 1-side
// members at distance >= k from it. One recursion level costs k-1 rounds
// (a distance-(k-1) probe), so the whole computation costs
// (k-1)·ceil(log2 n) rounds.
//
// This substitutes for the SEW13-based deterministic ruling sets of
// Lemma 20 (1)/(2); the (α, β) contract the layering technique needs is
// identical, with β = (k-1)·log n instead of k²·β': a simpler recursion
// for a larger domination distance.
type DetRulingSet struct {
	InSet  []bool
	Alpha  int
	Beta   int
	Rounds int
}

// DetRulingSetCompute runs the recursion over the given candidate IDs
// (distances are measured in g, matching the layering semantics).
func DetRulingSetCompute(g *graph.G, active []bool, k int) *DetRulingSet {
	n := g.N()
	bits := 0
	for 1<<bits < n {
		bits++
	}
	var candidates []int
	for v := 0; v < n; v++ {
		if active == nil || active[v] {
			candidates = append(candidates, v)
		}
	}
	set := aglpRec(g, candidates, k, bits-1)
	in := make([]bool, n)
	for _, v := range set {
		in[v] = true
	}
	beta := (k - 1) * bits
	if beta < 1 {
		beta = 1
	}
	return &DetRulingSet{
		InSet:  in,
		Alpha:  k,
		Beta:   beta,
		Rounds: (k - 1) * bits,
	}
}

func aglpRec(g *graph.G, candidates []int, k, bit int) []int {
	if len(candidates) == 0 {
		return nil
	}
	if len(candidates) == 1 || bit < 0 {
		// IDs are unique, so at bit < 0 a single candidate remains per
		// recursion path.
		return candidates[:1]
	}
	var c0, c1 []int
	for _, v := range candidates {
		if v&(1<<bit) == 0 {
			c0 = append(c0, v)
		} else {
			c1 = append(c1, v)
		}
	}
	s0 := aglpRec(g, c0, k, bit-1)
	s1 := aglpRec(g, c1, k, bit-1)
	if len(s0) == 0 {
		return s1
	}
	// Keep s1 members at distance >= k from s0 (distance-(k-1) probe).
	dist, _ := g.MultiSourceDist(s0)
	out := append([]int(nil), s0...)
	for _, v := range s1 {
		if dist[v] < 0 || dist[v] >= k {
			out = append(out, v)
		}
	}
	return out
}
