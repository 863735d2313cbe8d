// Package brooks implements the distributed Brooks' theorem (Theorem 5,
// originally [PS95], re-proved in Section 2.3 of the paper): when a graph
// with Δ >= 3 that is not a clique is Δ-colored except for a single node v,
// the coloring can be completed by recoloring only inside the
// (2·log_{Δ-1} n)-neighborhood of v.
//
// The procedure follows the paper's proof: v holds a "token"; while the
// token node has no free color, the token moves to a neighbor u by coloring
// the current node with c(u) and uncoloring u (always proper, because a
// node without a free color sees all Δ colors on its neighbors). The token
// is walked towards either a node of degree < Δ (which always has a free
// color) or a degree-choosable component, which is then wholly uncolored
// and exactly re-colored from its degree lists (possible by Theorem 8).
// Lemma 16 guarantees one of the two targets exists within the stated
// radius.
package brooks

import (
	"fmt"
	"math"

	"deltacolor/graph"
	"deltacolor/internal/gallai"
)

// Mode records which escape hatch completed the coloring.
type Mode int

const (
	// ModeFree: the uncolored node already had a free color.
	ModeFree Mode = iota + 1
	// ModeLowDegree: the token walked to a node of degree < Δ.
	ModeLowDegree
	// ModeDCC: the token walked to a degree-choosable component, which was
	// uncolored and brute-force re-colored.
	ModeDCC
	// ModeFallback: the heuristic DCC search failed and an expanding-ball
	// exact re-coloring was used instead (possible only because FindDCC is
	// heuristically incomplete: it tries short cycles, ears and small
	// blocks, not every DCC of the ball).
	ModeFallback
)

func (m Mode) String() string {
	switch m {
	case ModeFree:
		return "free"
	case ModeLowDegree:
		return "low-degree"
	case ModeDCC:
		return "dcc"
	case ModeFallback:
		return "fallback"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Result reports a completed recoloring.
type Result struct {
	Colors []int
	Radius int // max distance from the start node that was touched
	Rounds int // LOCAL rounds charged (ball collection + token walk + local recoloring)
	Mode   Mode
}

// SearchRadius returns the paper's bound 2·log_{Δ-1} n (ceiling), the
// radius within which Lemma 16 guarantees a low-degree node or a DCC.
func SearchRadius(n, delta int) int {
	if delta < 3 || n < 2 {
		return 1
	}
	r := int(math.Ceil(2 * math.Log(float64(n)) / math.Log(float64(delta-1))))
	if r < 1 {
		r = 1
	}
	return r
}

// FixOne completes node v of a proper partial Δ-coloring (partial[v] must
// be < 0, colored nodes carry values in [0, delta)). It returns new colors;
// the input slice is not modified.
//
// Multi-hole semantics: the coloring does NOT have to be total away from v.
// Other uncolored nodes — the composite algorithms' deferral paths and the
// SLOCAL executor both call FixOne mid-run with many holes open, some of
// them adjacent — are treated as slack everywhere a color constraint is
// read: freeColor ignores uncolored neighbors, and the DCC and fallback
// recolorings build their lists (gallai.DegreeLists, deltaLists) from
// colored boundary nodes only, so an uncolored boundary neighbor widens a
// list instead of blocking a color. Two consequences, pinned by the
// adjacent-hole regression tests:
//
//   - the token walk never steps into another hole: a token node adjacent
//     to an uncolored neighbor sees at most Δ-1 colors and therefore exits
//     early with a free color before the step is taken (in particular, a
//     hole adjacent to another hole always resolves in ModeFree);
//   - a DCC or fallback recoloring whose region contains other holes
//     completes them as a side effect (their lists are supersets of the
//     degree lists, so Theorem 8 still applies).
//
// Everything FixOne reads lies within distance Radius+1 of v and
// everything it writes within distance Radius (TestFixOneTouchWithinRadius)
// — the locality contract the batched repair engine in batch.go schedules
// against.
func FixOne(g *graph.G, partial []int, v, delta int) (*Result, error) {
	if partial[v] >= 0 {
		return nil, fmt.Errorf("brooks: node %d is already colored", v)
	}
	colors := append([]int(nil), partial...)
	rMax := SearchRadius(g.N(), delta)

	// Fast path: free color at v.
	if c := freeColor(g, colors, v, delta); c >= 0 {
		colors[v] = c
		return &Result{Colors: colors, Radius: 0, Rounds: 1, Mode: ModeFree}, nil
	}

	// Look for the nearest low-degree node.
	bfs := g.BFSLimited(v, rMax)
	target, mode := -1, Mode(0)
	for _, u := range bfs.Order {
		if g.Deg(u) < delta {
			target, mode = u, ModeLowDegree
			break
		}
	}
	var dcc []int
	if target < 0 {
		// Look for a DCC: nearest ball node contained in one.
		for _, u := range bfs.Order {
			if d := gallai.FindDCC(g, u, rMax); d != nil {
				target, mode, dcc = u, ModeDCC, d
				break
			}
		}
	}
	if target >= 0 {
		res, err := walkAndResolve(g, colors, v, target, delta, mode, dcc, bfs)
		if err == nil {
			return res, nil
		}
		// fall through to the fallback on unexpected failure
	}
	return fallbackRecolor(g, colors, v, delta)
}

// walkAndResolve moves the token from v to target along a BFS shortest
// path, then resolves at the target (free color for low-degree, exact
// recoloring for a DCC).
func walkAndResolve(g *graph.G, colors []int, v, target, delta int, mode Mode, dcc []int, bfs *graph.BFSResult) (*Result, error) {
	// Reconstruct the path v -> target.
	var path []int
	for x := target; x != -1; x = bfs.Parent[x] {
		path = append(path, x)
	}
	// path is target..v; reverse.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	radius := 0
	cur := v // token holder, uncolored
	for i := 1; i < len(path); i++ {
		// Early exit: token node gained a free color.
		if c := freeColor(g, colors, cur, delta); c >= 0 {
			colors[cur] = c
			return &Result{Colors: colors, Radius: radius, Rounds: 2*radius + 2, Mode: ModeFree}, nil
		}
		next := path[i]
		colors[cur] = colors[next]
		colors[next] = -1
		cur = next
		if bfs.Dist[cur] > radius {
			radius = bfs.Dist[cur]
		}
	}
	switch mode {
	case ModeLowDegree:
		c := freeColor(g, colors, cur, delta)
		if c < 0 {
			return nil, fmt.Errorf("brooks: low-degree target %d has no free color", cur)
		}
		colors[cur] = c
		return &Result{Colors: colors, Radius: radius, Rounds: 2*radius + 2, Mode: ModeLowDegree}, nil
	case ModeDCC:
		// Uncolor the whole component (token node may or may not be in it;
		// the proof moves the token to the closest node of the DCC, so cur
		// is a member when dcc came from FindDCC(cur, .)).
		if !containsNode(dcc, cur) {
			dcc = append(dcc, cur)
			if !gallai.IsDCCSet(g, dcc) {
				return nil, fmt.Errorf("brooks: token node %d not in its DCC", cur)
			}
		}
		for _, u := range dcc {
			colors[u] = -1
		}
		lists := gallai.DegreeLists(g, dcc, colors, delta)
		sol, err := gallai.BruteListColor(g, dcc, lists)
		if err != nil {
			return nil, fmt.Errorf("brooks: DCC recoloring: %w", err)
		}
		for u, c := range sol {
			colors[u] = c
		}
		dccRadius := gallai.SetRadius(g, dcc)
		if dccRadius < 0 {
			dccRadius = len(dcc)
		}
		total := radius + 2*dccRadius
		return &Result{Colors: colors, Radius: total, Rounds: 2*total + 2, Mode: ModeDCC}, nil
	default:
		return nil, fmt.Errorf("brooks: unknown mode %v", mode)
	}
}

// fallbackRecolor uncolors balls of growing radius around v and exactly
// re-colors them against the boundary with Δ-lists. Brooks' theorem
// guarantees success once the ball covers v's component (a nice graph is
// Δ-colorable); in practice tiny radii suffice.
func fallbackRecolor(g *graph.G, colors []int, v, delta int) (*Result, error) {
	for r := 1; r <= g.N(); r++ {
		ball := g.Ball(v, r)
		saved := map[int]int{}
		for _, u := range ball {
			saved[u] = colors[u]
			colors[u] = -1
		}
		lists := deltaLists(g, ball, colors, delta)
		sol, err := gallai.BruteListColor(g, ball, lists)
		if err == nil {
			for u, c := range sol {
				colors[u] = c
			}
			return &Result{Colors: colors, Radius: r, Rounds: 2*r + 2, Mode: ModeFallback}, nil
		}
		for u, c := range saved {
			colors[u] = c
		}
		if len(ball) == g.N() {
			break
		}
	}
	return nil, fmt.Errorf("brooks: fallback recoloring failed around node %d", v)
}

// deltaLists builds {0..delta-1} minus externally-colored neighbor colors
// for each ball node.
func deltaLists(g *graph.G, nodes []int, colors []int, delta int) map[int][]int {
	inSet := make(map[int]bool, len(nodes))
	for _, u := range nodes {
		inSet[u] = true
	}
	lists := make(map[int][]int, len(nodes))
	for _, u := range nodes {
		used := map[int]bool{}
		for _, w := range g.Neighbors(u) {
			if !inSet[w] && colors[w] >= 0 {
				used[colors[w]] = true
			}
		}
		var l []int
		for c := 0; c < delta; c++ {
			if !used[c] {
				l = append(l, c)
			}
		}
		lists[u] = l
	}
	return lists
}

// freeColor returns a color in [0, delta) unused by v's neighbors, or -1.
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

func containsNode(nodes []int, v int) bool {
	for _, u := range nodes {
		if u == v {
			return true
		}
	}
	return false
}
