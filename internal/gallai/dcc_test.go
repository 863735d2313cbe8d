package gallai

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"deltacolor/graph"
	"deltacolor/graph/gen"
)

// shortCyclesThroughOracle is the full-ball, map-based cycle search the
// scratch search replaced, kept verbatim as the differential oracle.
func shortCyclesThroughOracle(g *graph.G, v, r int) [][]int {
	res := g.BFSLimited(v, r)
	branch := make(map[int]int)
	branch[v] = -1
	for _, u := range res.Order {
		if u == v {
			continue
		}
		p := res.Parent[u]
		if p == v {
			branch[u] = u
		} else {
			branch[u] = branch[p]
		}
	}
	type edge struct{ x, y, length int }
	var closers []edge
	for _, x := range res.Order {
		for _, y := range g.Neighbors(x) {
			if x >= y {
				continue
			}
			dy, ok := branch[y]
			if !ok {
				continue
			}
			if res.Parent[y] == x || res.Parent[x] == y {
				continue
			}
			if branch[x] == dy {
				continue // same branch: cycle may avoid v
			}
			closers = append(closers, edge{x, y, res.Dist[x] + res.Dist[y] + 1})
		}
	}
	// Shortest few cycles first (insertion sort; the list is short).
	for i := 1; i < len(closers); i++ {
		for j := i; j > 0 && closers[j].length < closers[j-1].length; j-- {
			closers[j], closers[j-1] = closers[j-1], closers[j]
		}
	}
	const maxCycles = 8
	var out [][]int
	for i := 0; i < len(closers) && len(out) < maxCycles; i++ {
		e := closers[i]
		set := map[int]bool{}
		for u := e.x; u != -1; u = res.Parent[u] {
			set[u] = true
		}
		for u := e.y; u != -1; u = res.Parent[u] {
			set[u] = true
		}
		nodes := make([]int, 0, len(set))
		for u := range set {
			nodes = append(nodes, u)
		}
		sort.Ints(nodes) // map range order varies per run; callers need stable sets
		out = append(out, nodes)
	}
	return out
}

// findDCCOracle is the search as it stood before the scratch rewrite:
// shortCyclesThroughOracle, SetRadius on induced subgraphs, map-based ear
// counting, and the full radius-2r ball for the block fallback.
func findDCCOracle(g *graph.G, v, r int) []int {
	if r < 1 {
		return nil
	}
	for _, cyc := range shortCyclesThroughOracle(g, v, r) {
		if rad := SetRadius(g, cyc); rad < 0 || rad > r {
			continue
		}
		if IsDCCSet(g, cyc) {
			return cyc
		}
		inCyc := make(map[int]bool, len(cyc))
		for _, u := range cyc {
			inCyc[u] = true
		}
		cand := map[int]int{}
		var candOrder []int
		for _, u := range cyc {
			for _, x := range g.Neighbors(u) {
				if !inCyc[x] {
					if cand[x] == 0 {
						candOrder = append(candOrder, x)
					}
					cand[x]++
				}
			}
		}
		for _, x := range candOrder {
			if cand[x] < 2 {
				continue
			}
			ext := append(append([]int(nil), cyc...), x)
			if rad := SetRadius(g, ext); rad < 0 || rad > r {
				continue
			}
			if IsDCCSet(g, ext) {
				return ext
			}
		}
	}
	ball := g.Ball(v, 2*r)
	if len(ball) <= 48 {
		if got := blockDCC(g, ball, v, r); got != nil {
			return got
		}
	}
	return nil
}

type dccCase struct {
	name string
	g    *graph.G
}

// dccDiffCases are the differential families: random regular graphs of
// degree 3, 4, 5 and 8, tori, a hypercube, the Petersen graph and clique
// chains. Under -short n stays at most 1000.
func dccDiffCases(short bool) []dccCase {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{200, 1000}
	if !short {
		sizes = append(sizes, 4096)
	}
	var cs []dccCase
	for _, d := range []int{3, 4, 5, 8} {
		for _, n := range sizes {
			cs = append(cs, dccCase{fmt.Sprintf("rr%d-n%d", d, n), gen.MustRandomRegular(rng, n, d)})
		}
	}
	return append(cs,
		dccCase{"torus-5x7", gen.Torus(5, 7)},
		dccCase{"torus-12x12", gen.Torus(12, 12)},
		dccCase{"torus-30x30", gen.Torus(30, 30)},
		dccCase{"hypercube-6", gen.Hypercube(6)},
		dccCase{"petersen", gen.Petersen()},
		dccCase{"cliquechain-4x6", gen.CliqueChain(4, 6)},
		dccCase{"cliquechain-5x40", gen.CliqueChain(5, 40)},
	)
}

var dccDiffRadii = []int{1, 2, 3, 4, 6}

// diffNodes returns the nodes to compare on g: all of them up to n=1000,
// else an evenly spread sample of about 500, or of 250 under -short.
func diffNodes(g *graph.G, short bool) []int {
	step := 1
	switch {
	case short && g.N() > 250:
		step = g.N() / 250
	case g.N() > 1000:
		step = g.N() / 500
	}
	var vs []int
	for v := 0; v < g.N(); v += step {
		vs = append(vs, v)
	}
	return vs
}

// TestShortCyclesThroughMatchesOracle: the early-stopping scratch search
// returns exactly the oracle's cycles, in the same order, for every node.
// The scratch is shared across nodes and radii, as in SelectDCCs.
func TestShortCyclesThroughMatchesOracle(t *testing.T) {
	for _, tc := range dccDiffCases(testing.Short()) {
		s := newDCCScratch(tc.g.N())
		for _, r := range dccDiffRadii {
			for _, v := range diffNodes(tc.g, testing.Short()) {
				want := shortCyclesThroughOracle(tc.g, v, r)
				got := s.shortCyclesThrough(tc.g, v, r)
				if len(want) == 0 && len(got) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s r=%d v=%d: got %v, want %v", tc.name, r, v, got, want)
				}
			}
		}
	}
}

// TestFindDCCMatchesOracle: the whole search (cycles, ears, block
// fallback) returns the pre-scratch search's DCC for every node, both
// one-shot and on a shared scratch, and SelectDCCs' choice for each node
// is the one-shot FindDCC's, so no state leaks from one search into the
// next. It stays at n <= 1000 even without -short: the cycle stage, the
// costly part, is compared at n=4096 by the test above.
func TestFindDCCMatchesOracle(t *testing.T) {
	for _, tc := range dccDiffCases(true) {
		for _, r := range dccDiffRadii {
			dccs, owner, _ := SelectDCCs(tc.g, r)
			s := newDCCScratch(tc.g.N())
			for _, v := range diffNodes(tc.g, testing.Short()) {
				want := findDCCOracle(tc.g, v, r)
				if got := FindDCC(tc.g, v, r); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s r=%d v=%d: FindDCC %v, oracle %v", tc.name, r, v, got, want)
				}
				if got := s.findDCC(tc.g, v, r); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s r=%d v=%d: shared-scratch findDCC %v, oracle %v", tc.name, r, v, got, want)
				}
				var sel []int
				if owner[v] >= 0 {
					sel = dccs[owner[v]]
				}
				if !sameSet(sel, want) {
					t.Fatalf("%s r=%d v=%d: SelectDCCs chose %v, FindDCC %v", tc.name, r, v, sel, want)
				}
			}
		}
	}
}

// sameSet compares node sets: SelectDCCs keeps the first finder's copy of
// each deduplicated set, whose member order may differ from a later
// finder's.
func sameSet(a, b []int) bool {
	return dccKey(a) == dccKey(b) && (a == nil) == (b == nil)
}

// TestSmallBallMatchesBall: the capped scratch BFS returns graph.G.Ball's
// order whenever the ball fits, and nil exactly when it does not.
func TestSmallBallMatchesBall(t *testing.T) {
	for _, tc := range dccDiffCases(true) {
		s := newDCCScratch(tc.g.N())
		for _, r := range []int{1, 2, 4, 8, 12} {
			for _, v := range diffNodes(tc.g, true) {
				want := tc.g.Ball(v, r)
				got := s.smallBall(tc.g, v, r, maxBlockBall)
				if len(want) > maxBlockBall {
					if got != nil {
						t.Fatalf("%s r=%d v=%d: ball of %d nodes not rejected", tc.name, r, v, len(want))
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s r=%d v=%d: got %v, want %v", tc.name, r, v, got, want)
				}
			}
		}
	}
}

// TestRadiusAtMostMatchesSetRadius: the in-set radius test agrees with
// SetRadius on random connected sets, disconnected sets and the empty set.
func TestRadiusAtMostMatchesSetRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range dccDiffCases(true) {
		s := newDCCScratch(tc.g.N())
		for trial := 0; trial < 200; trial++ {
			v := rng.Intn(tc.g.N())
			// A random connected set grown from v, sometimes plus a
			// random (likely far, so disconnecting) node.
			set := []int{v}
			in := map[int]bool{v: true}
			size := 1 + rng.Intn(13)
			for try := 0; try < 100 && len(set) < size; try++ {
				nb := tc.g.Neighbors(set[rng.Intn(len(set))])
				if len(nb) == 0 {
					continue
				}
				if x := nb[rng.Intn(len(nb))]; !in[x] {
					in[x] = true
					set = append(set, x)
				}
			}
			if x := rng.Intn(tc.g.N()); trial%4 == 0 && !in[x] {
				set = append(set, x)
			}
			rad := SetRadius(tc.g, set)
			s.induce(tc.g, set)
			for r := 0; r <= 7; r++ {
				if got, want := s.radiusAtMost(r), rad >= 0 && rad <= r; got != want {
					t.Fatalf("%s set %v r=%d: radiusAtMost %v, SetRadius %d", tc.name, set, r, got, rad)
				}
			}
		}
	}
	s := newDCCScratch(4)
	s.induce(graph.New(4), nil)
	if s.radiusAtMost(3) {
		t.Fatalf("empty set reported radius <= 3")
	}
}

// TestCycleSetIsDCCMatchesIsDCCSet: on every set the cycle search tests —
// each short cycle, and each cycle plus an ear candidate — the
// shortcut DCC test agrees with IsDCCSet.
func TestCycleSetIsDCCMatchesIsDCCSet(t *testing.T) {
	for _, tc := range dccDiffCases(true) {
		s := newDCCScratch(tc.g.N())
		check := func(set []int) {
			t.Helper()
			s.induce(tc.g, set)
			if got, want := s.cycleSetIsDCC(), IsDCCSet(tc.g, set); got != want {
				t.Fatalf("%s set %v: cycleSetIsDCC %v, IsDCCSet %v", tc.name, set, got, want)
			}
		}
		for _, r := range []int{1, 2, 3} {
			for _, v := range diffNodes(tc.g, true) {
				var cycles [][]int
				for _, cyc := range s.shortCyclesThrough(tc.g, v, r) {
					cycles = append(cycles, append([]int(nil), cyc...))
				}
				for _, cyc := range cycles {
					check(cyc)
					ears := append([]int(nil), s.earCandidates(tc.g, cyc)...)
					for _, x := range ears {
						check(append(append([]int(nil), cyc...), x))
					}
				}
			}
		}
	}
}

// TestDCCKeyNoAliasing: keys of sets that differ only above bit 24 differ
// (a 3-byte encoding folded 1<<24 onto 0).
func TestDCCKeyNoAliasing(t *testing.T) {
	a := dccKey([]int{5, 1 << 24})
	b := dccKey([]int{5, 1 << 25})
	c := dccKey([]int{5, 0})
	if a == b || a == c || b == c {
		t.Fatalf("dccKey aliases sets differing above bit 24")
	}
	if dccKey([]int{3, 1, 2}) != dccKey([]int{1, 2, 3}) {
		t.Fatalf("dccKey depends on member order")
	}
}

func BenchmarkSelectDCCs(b *testing.B) {
	g := gen.MustRandomRegular(rand.New(rand.NewSource(1)), 4096, 4)
	b.ReportAllocs()
	for b.Loop() {
		SelectDCCs(g, 6)
	}
}

func BenchmarkFindDCC(b *testing.B) {
	g := gen.MustRandomRegular(rand.New(rand.NewSource(1)), 4096, 4)
	b.ReportAllocs()
	v := 0
	for b.Loop() {
		FindDCC(g, v, 6)
		v = (v + 1) % g.N()
	}
}
