package local

import (
	"fmt"

	"deltacolor/graph"
)

// QuotientNetwork builds the network of the quotient graph of parent under
// groups — one quotient node per group, adjacent when two groups share a
// member or parent has an edge between them — directly from the parent's
// port tables (its adjacency lists).
//
// The DCC and ruling-set phases of the Δ-coloring algorithms construct
// such virtual networks once per phase. graph.Quotient + NewNetwork costs
// O(m) for the full-edge scan plus a per-edge HasEdge dedupe that is
// quadratic in quotient degree; this construction touches only the
// groups' own edges and dedupes with an O(q) stamp array, so the whole
// build is linear in Σ_groups (|group| + deg(group)). The quotient's edge
// set is identical to graph.Quotient's (adjacency order may differ, which
// protocols must not — and do not — depend on, exactly as with the map
// iteration order of graph.Quotient). The network is built with cfg, like
// every other network of the calling pipeline.
func QuotientNetwork(parent *graph.G, groups [][]int, seed int64, cfg Config) *Network {
	return NewQuotientBuilder(parent, cfg).Build(groups, seed)
}

// QuotientBuilder builds quotient networks of one parent graph repeatedly,
// amortizing the owner table. A fresh QuotientNetwork call pays two O(n)
// passes over a node-indexed owner array (allocation zeroing plus the
// reset to "no owner") regardless of how small the groups are; a caller
// that quotients the same parent once per iteration — the batched Brooks
// repair engine schedules an MIS over hole balls every iteration — paid
// that O(n) each time, a quadratic total against shrinking hole counts.
// The builder keeps the array across Build calls and validates entries
// with an epoch stamp, so build i>0 touches only the groups' own nodes
// and edges. Not safe for concurrent use.
type QuotientBuilder struct {
	parent *graph.G
	cfg    Config
	// first[v] is v's owning group in the current build, valid only when
	// stamp[v] == epoch — no per-build reset pass.
	first []int32
	stamp []int32
	epoch int32
}

// NewQuotientBuilder prepares a builder over parent whose networks are
// built with cfg. The O(n) owner-array allocation happens here, once.
func NewQuotientBuilder(parent *graph.G, cfg Config) *QuotientBuilder {
	n := parent.N()
	return &QuotientBuilder{
		parent: parent,
		cfg:    cfg,
		first:  make([]int32, n),
		stamp:  make([]int32, n),
	}
}

// Build constructs the quotient network of the builder's parent under
// groups — identical output to QuotientNetwork(parent, groups, seed, cfg).
func (b *QuotientBuilder) Build(groups [][]int, seed int64) *Network {
	parent := b.parent
	q := len(groups)
	n := parent.N()
	b.epoch++
	if b.epoch == 0 { // wrapped: stale stamps could collide, re-zero once
		for i := range b.stamp {
			b.stamp[i] = 0
		}
		b.epoch = 1
	}
	epoch := b.epoch

	// owner lists per member node: the common case is a single owner,
	// kept in the flat epoch-stamped array; shared members spill into a
	// small map.
	first := b.first
	stamp := b.stamp
	var extra map[int][]int32
	for gi, grp := range groups {
		for _, v := range grp {
			if v < 0 || v >= n {
				panic(fmt.Sprintf("local: QuotientNetwork: group %d contains node %d outside [0,%d)", gi, v, n))
			}
			if stamp[v] != epoch {
				stamp[v] = epoch
				first[v] = int32(gi)
			} else {
				if extra == nil {
					extra = map[int][]int32{}
				}
				extra[v] = append(extra[v], int32(gi))
			}
		}
	}

	adj := make([][]int, q)
	mark := make([]int, q) // mark[o] = last group that linked to o
	for i := range mark {
		mark[i] = -1
	}
	link := func(gi, o int) {
		if o != gi && mark[o] != gi {
			mark[o] = gi
			adj[gi] = append(adj[gi], o)
		}
	}
	for gi, grp := range groups {
		for _, v := range grp {
			// Groups sharing v are adjacent; so are the owner groups of
			// every parent-neighbor of v.
			link(gi, int(first[v]))
			for _, o := range extra[v] {
				link(gi, int(o))
			}
			for _, u := range parent.Neighbors(v) {
				if stamp[u] == epoch {
					link(gi, int(first[u]))
					for _, oo := range extra[u] {
						link(gi, int(oo))
					}
				}
			}
		}
	}

	qg, err := graph.FromAdjacency(adj)
	if err != nil {
		panic(fmt.Sprintf("local: QuotientNetwork: %v", err))
	}
	return b.cfg.NewNetwork(qg, seed)
}
