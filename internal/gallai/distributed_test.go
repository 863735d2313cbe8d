package gallai

import (
	"math/rand"
	"testing"

	"deltacolor/graph"
	"deltacolor/graph/gen"
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
			dd, dOwner, rounds := SelectDCCsDistributed(tc.g, tc.r)

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
