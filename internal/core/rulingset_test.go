package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/internal/brooks"
)

// oracleRulingSet is the reference recursion: every merge filters s1 with
// a full-graph multi-source BFS from s0.
func oracleRulingSet(g *graph.G, active []bool, k int) []bool {
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
	set := oracleAGLPRec(g, candidates, k, bits-1)
	in := make([]bool, n)
	for _, v := range set {
		in[v] = true
	}
	return in
}

func oracleAGLPRec(g *graph.G, candidates []int, k, bit int) []int {
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
	s0 := oracleAGLPRec(g, c0, k, bit-1)
	s1 := oracleAGLPRec(g, c1, k, bit-1)
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

// disconnectedWithIsolated is two random 3-regular components, a path and
// isolated nodes, with the pieces' IDs interleaved so that merges mix them.
func disconnectedWithIsolated(rng *rand.Rand) *graph.G {
	const n = 300
	perm := rng.Perm(n)
	g := graph.New(n)
	off := 0
	for _, size := range []int{120, 80} {
		h := gen.MustRandomRegular(rng, size, 3)
		for _, e := range h.Edges() {
			g.MustEdge(perm[off+e[0]], perm[off+e[1]])
		}
		off += size
	}
	for i := off; i < off+40; i++ {
		g.MustEdge(perm[i], perm[i+1])
	}
	// perm[off+41:] stay isolated.
	return g
}

// TestAGLPMatchesOracle pins DetRulingSetCompute's InSet to the full-BFS
// recursion across degrees, sizes, lattices, a disconnected graph (empty
// frontiers on both balls), sparse and empty masks, and k from 1 (every
// candidate kept) to the deterministic pipeline's 6·SearchRadius+3.
func TestAGLPMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	type named struct {
		name string
		g    *graph.G
	}
	var graphs []named
	for _, n := range []int{100, 512, 1000, 4096} {
		if n == 4096 && testing.Short() {
			continue
		}
		for _, d := range []int{3, 4, 6} {
			graphs = append(graphs, named{fmt.Sprintf("rr%d-n%d", d, n), gen.MustRandomRegular(rng, n, d)})
		}
	}
	graphs = append(graphs,
		named{"torus45x45", gen.Torus(45, 45)},
		named{"grid30x40", gen.Grid(30, 40)},
		named{"disconnected", disconnectedWithIsolated(rng)},
	)
	for _, tc := range graphs {
		n := tc.g.N()
		third := make([]bool, n)
		for v := range third {
			third[v] = rng.Intn(3) == 0
		}
		masks := []struct {
			name   string
			active []bool
		}{{"all", nil}, {"third", third}, {"none", make([]bool, n)}}
		ks := []int{1, 2, 3, 4, 5, 8, 6*brooks.SearchRadius(n, tc.g.MaxDegree()) + 3}
		for _, m := range masks {
			for _, k := range ks {
				got := DetRulingSetCompute(tc.g, m.active, k).InSet
				want := oracleRulingSet(tc.g, m.active, k)
				if !slices.Equal(got, want) {
					t.Fatalf("%s mask=%s k=%d: InSet differs from the oracle", tc.name, m.name, k)
				}
				if k == 1 {
					for v := range got {
						if got[v] != (m.active == nil || m.active[v]) {
							t.Fatalf("%s mask=%s k=1: candidate %d not kept", tc.name, m.name, v)
						}
					}
				}
			}
		}
	}
}

func TestDetRulingSetConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := gen.MustRandomRegular(rng, 1000, 4)
	k := 6*brooks.SearchRadius(g.N(), 4) + 3
	want := DetRulingSetCompute(g, nil, k).InSet
	const workers = 8
	got := make([][]bool, workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = DetRulingSetCompute(g, nil, k).InSet
		}()
	}
	wg.Wait()
	for i, in := range got {
		if !slices.Equal(in, want) {
			t.Fatalf("goroutine %d: InSet differs from the serial call", i)
		}
	}
}

var rulingSetSink *DetRulingSet

func BenchmarkDetRulingSet(b *testing.B) {
	const n = 4096
	g := gen.MustRandomRegular(rand.New(rand.NewSource(1)), n, 4)
	k := 6*brooks.SearchRadius(n, 4) + 3
	b.ReportAllocs()
	for b.Loop() {
		rulingSetSink = DetRulingSetCompute(g, nil, k)
	}
}
