package local

import (
	"slices"
	"testing"

	"deltacolor/graph"
)

// TestGatherBallMatchesBFS is the ground-truth property test for the
// flooding primitive: the ball GatherStepped collects in t rounds must
// list exactly the nodes at BFS distance <= t, each once, in discovery
// (nondecreasing distance) order with the center first. Every node at
// distance <= t-1 carries its complete adjacency in port order (it had
// t-1 rounds to travel); a node at distance exactly t carries only its
// bare self-report (nil adjacency). At radius 0 the ball is the center
// alone with an empty, non-nil adjacency.
func TestGatherBallMatchesBFS(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.G
		seed int64
	}{
		{"rand-40", randomGraph(40, 0.05, 1), 1},
		{"rand-60", randomGraph(60, 0.08, 2), 2},
		{"rand-50", randomGraph(50, 0.15, 3), 3},
		{"rand-dense-30", randomGraph(30, 0.5, 4), 4},
		{"path-17", pathGraph(17), 5},
		{"cycle-24", cycleGraph(24), 6},
		{"isolated", func() *graph.G {
			g := graph.New(12)
			g.MustEdge(0, 1)
			g.MustEdge(1, 2)
			g.MustEdge(4, 5)
			return g
		}(), 7},
	}
	t.Run("stepped", func(t *testing.T) {
		for _, tc := range cases {
			for _, radius := range []int{0, 1, 2, 3, 4} {
				net := NewNetwork(tc.g, tc.seed)
				net.setShards(4)
				balls := GatherStepped(net, radius)
				if net.Rounds() != radius {
					t.Fatalf("%s t=%d: rounds=%d", tc.name, radius, net.Rounds())
				}
				for v := 0; v < tc.g.N(); v++ {
					assertBallMatchesBFS(t, tc.g, v, radius, balls[v])
				}
			}
		}
	})
}

func assertBallMatchesBFS(t *testing.T, g *graph.G, v, radius int, ball *Ball) {
	t.Helper()
	bfs := g.BFSLimited(v, radius)
	if ball.Center != v || ball.Radius != radius {
		t.Fatalf("ball center/radius = %d/%d, want %d/%d", ball.Center, ball.Radius, v, radius)
	}
	if len(ball.IDs) != len(ball.Adj) {
		t.Fatalf("center %d: %d IDs but %d adjacency lists", v, len(ball.IDs), len(ball.Adj))
	}
	if len(ball.IDs) == 0 || int(ball.IDs[0]) != v {
		t.Fatalf("center %d: IDs[0] is not the center: %v", v, ball.IDs)
	}
	if len(ball.IDs) != len(bfs.Order) {
		t.Fatalf("t=%d center=%d: knows %d nodes, BFS ball has %d", radius, v, len(ball.IDs), len(bfs.Order))
	}
	seen := map[int]bool{}
	prevDist := 0
	for i, id := range ball.IDs {
		u := int(id)
		if seen[u] {
			t.Fatalf("center %d: node %d listed twice", v, u)
		}
		seen[u] = true
		d := bfs.Dist[u]
		if d < 0 || d > radius {
			t.Fatalf("center %d learned %d outside its %d-ball", v, u, radius)
		}
		if d < prevDist {
			t.Fatalf("center %d: node %d (dist %d) discovered after a node at dist %d", v, u, d, prevDist)
		}
		prevDist = d
		adj := ball.Adj[i]
		switch {
		case radius == 0:
			if adj == nil || len(adj) != 0 {
				t.Fatalf("center %d: radius-0 adjacency = %#v, want empty non-nil", v, adj)
			}
		case d < radius:
			got := make([]int, len(adj))
			for j, x := range adj {
				got[j] = int(x)
			}
			if !slices.Equal(got, g.Neighbors(u)) {
				t.Fatalf("center %d: adjacency of %d (dist %d) = %v, want %v in port order",
					v, u, d, got, g.Neighbors(u))
			}
		default: // dist == radius: only the self-report made it
			if adj != nil {
				t.Fatalf("center %d: node %d at distance %d should have nil adjacency, got %v",
					v, u, radius, adj)
			}
		}
	}
}
