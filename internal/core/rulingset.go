package core

import (
	"sort"

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
//
// The simulator computes the recursion centrally. Each merge decides the
// distance-(k-1) probe with bounded BFS balls on one scratch per call, so
// a merge costs the balls it explores, not O(n); the charged Rounds are
// the distributed recursion's (k-1)·ceil(log2 n) regardless.
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
	r := &aglp{g: g, maxD: int32(k - 1), a: newBall(n), b: newBall(n)}
	m := r.rec(candidates, bits-1)
	in := make([]bool, n)
	for _, v := range candidates[:m] {
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

// aglp is one run of the bit recursion and its working memory: two BFS
// balls over g, reused across every merge.
//
// Ball a grows from s0, the kept side of the current merge, one level at
// a time and only as far as some query needs; every s1 member of the
// merge shares it. Ball b grows from the one s1 member being queried.
type aglp struct {
	g    *graph.G
	maxD int32 // k-1: s1 members within maxD of s0 are dropped
	a, b ball
}

// rec computes the ruling set of c, ascending candidates that share every
// ID bit above bit, and compacts it in place: the set is c[:m], ascending.
func (r *aglp) rec(c []int, bit int) int {
	if len(c) <= 1 || bit < 0 {
		// IDs are unique, so at bit < 0 a single candidate remains per
		// recursion path.
		return min(len(c), 1)
	}
	// The candidates agree above bit, so bit splits them into a prefix
	// (bit clear) and a suffix (bit set).
	split := sort.Search(len(c), func(i int) bool { return c[i]&(1<<bit) != 0 })
	c0, c1 := c[:split], c[split:]
	m0 := r.rec(c0, bit-1)
	m1 := r.rec(c1, bit-1)
	if m1 == 0 {
		return m0
	}
	if m0 == 0 {
		return copy(c, c1[:m1])
	}
	// Keep s1 members at distance >= k from s0 (distance-(k-1) probe).
	// Writes land at or before the member being read, so compacting
	// behind s0 never clobbers an unread member.
	r.a.reset()
	for _, u := range c[:m0] {
		r.a.add(int32(u), 0)
	}
	m := m0
	for _, v := range c1[:m1] {
		if !r.within(v) {
			c[m] = v
			m++
		}
	}
	return m
}

// within reports whether dist_g(v, s0) <= maxD, for v not in s0 (so
// maxD <= 0 is always far), by growing the two balls toward each other,
// always the side with the smaller frontier. A node stamped by both balls
// is a meeting: a meeting u with d_a(u)+d_b(u) <= maxD proves v close.
//
// The answer "far" is exact. Both balls are complete to their radii a and
// b (every node within the radius is stamped, expansion finishes a level
// before anyone looks), and every node of the intersection was checked
// when it got its second stamp. Take a shortest path p_0 ∈ s0, …, p_L = v
// with L <= maxD <= a+b: p_j with j = min(a, L) is within a of s0 and
// within L-j <= b of v, so it lies in both balls and was checked with
// d_a+d_b <= L. Hence no close meeting after a+b >= maxD means far, and
// so does an empty frontier on either side: an exhausted b holds v's whole
// component, an exhausted a holds every node reachable from s0.
//
// Ball a is shared across the queries of a merge, so it is only ever
// grown by whole levels and never past radius maxD; once complete (its
// frontier empty or its radius maxD) a query answers from d_a(v) alone.
func (r *aglp) within(v int) bool {
	g, maxD, a, b := r.g, r.maxD, &r.a, &r.b
	if a.has(int32(v)) {
		return a.slot[v].dist <= maxD
	}
	if len(a.frontier()) == 0 || a.radius >= maxD {
		return false
	}
	b.reset()
	b.add(int32(v), 0)
	for a.radius+b.radius < maxD {
		var met bool
		switch fa, fb := len(a.frontier()), len(b.frontier()); {
		case fa == 0 || fb == 0:
			return false
		case fa <= fb:
			met = a.expand(g, b, maxD)
		default:
			met = b.expand(g, a, maxD)
		}
		if met {
			return true
		}
	}
	return false
}

// ball is an epoch-stamped BFS ball: a node belongs to it while its stamp
// equals the epoch, with its distance from the ball's sources. queue holds
// the members in BFS order; the last level, queue[lo:], is the frontier.
type ball struct {
	epoch  uint32
	slot   []slot
	queue  []int32
	lo     int
	radius int32
}

// slot is one node's per-epoch state, kept together so that a visit
// touches one cache line.
type slot struct {
	stamp uint32
	dist  int32
}

func newBall(n int) ball {
	return ball{slot: make([]slot, n), queue: make([]int32, 0, n)}
}

// reset empties the ball in O(1) by starting a new epoch.
func (b *ball) reset() {
	b.epoch++
	if b.epoch == 0 { // wrapped: old stamps could alias the new epoch
		clear(b.slot)
		b.epoch = 1
	}
	b.queue = b.queue[:0]
	b.lo = 0
	b.radius = 0
}

func (b *ball) add(u, dist int32) {
	b.slot[u] = slot{stamp: b.epoch, dist: dist}
	b.queue = append(b.queue, u)
}

func (b *ball) has(u int32) bool { return b.slot[u].stamp == b.epoch }

func (b *ball) frontier() []int32 { return b.queue[b.lo:] }

// expand grows b by one whole level and reports whether a newly stamped
// node also lies in other at combined distance <= maxD. The level is
// finished either way, so b stays complete to its new radius. The queue
// never outgrows its capacity n: each node enters once per epoch.
//
//deltacolor:hotpath
func (b *ball) expand(g *graph.G, other *ball, maxD int32) bool {
	met := false
	d := b.radius + 1
	hi := len(b.queue)
	for _, w := range b.queue[b.lo:hi] {
		for _, u := range g.Neighbors(int(w)) {
			if b.slot[u].stamp == b.epoch {
				continue
			}
			b.slot[u] = slot{stamp: b.epoch, dist: d}
			b.queue = append(b.queue, int32(u))
			if o := other.slot[u]; o.stamp == other.epoch && o.dist+d <= maxD {
				met = true
			}
		}
	}
	b.lo = hi
	b.radius = d
	return met
}
