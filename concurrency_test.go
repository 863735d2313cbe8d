package deltacolor_test

// Every public entry point must be safe to call concurrently: a fault
// plan or relabel ablation travels with its own call (local.Config), so
// a ColorUnderFaults run must not reach a Color or Recolor running beside
// it, and neither may perturb the fault run. Each concurrent call is
// compared against its serial result, or against the pinned fault golden.

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"deltacolor"
	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/verify"
)

func TestConcurrentColorFaultsRecolor(t *testing.T) {
	type colorCase struct {
		g    *graph.G
		opts deltacolor.Options
		want *deltacolor.Result
	}
	rr4 := func(n int, seed int64) *graph.G {
		return gen.MustRandomRegular(rand.New(rand.NewSource(seed)), n, 4)
	}
	cases := []*colorCase{
		{g: rr4(256, 1), opts: deltacolor.Options{Algorithm: deltacolor.AlgRandomized, Seed: 1}},
		{g: rr4(128, 3), opts: deltacolor.Options{Algorithm: deltacolor.AlgDeterministic, Seed: 3}},
		{g: rr4(128, 4), opts: deltacolor.Options{Algorithm: deltacolor.AlgNetDec, Seed: 4}},
		{g: rr4(256, 5), opts: deltacolor.Options{Algorithm: deltacolor.AlgBaseline, Seed: 5}},
	}
	for _, c := range cases {
		res, err := deltacolor.Color(c.g, c.opts)
		if err != nil {
			t.Fatalf("%v: %v", c.opts.Algorithm, err)
		}
		c.want = res
	}

	// Recolor inputs: the randomized coloring with a few nodes forced onto
	// a neighbor's color, each repaired serially once for the reference.
	type recolorCase struct {
		colors []int // corrupted input, never mutated
		want   []int
		stats  deltacolor.RecolorStats
	}
	rg, valid := cases[0].g, cases[0].want.Colors
	var recolors []recolorCase
	for k := 1; k <= 4; k++ {
		bad := append([]int(nil), valid...)
		for i := 0; i < 4*k; i++ {
			v := (i*37 + k*11) % rg.N()
			bad[v] = bad[rg.Neighbors(v)[0]]
		}
		got := append([]int(nil), bad...)
		stats, err := deltacolor.Recolor(rg, got, 4, int64(k))
		if err != nil || stats.Conflicts == 0 {
			t.Fatalf("serial Recolor %d: %v (stats %+v)", k, err, stats)
		}
		recolors = append(recolors, recolorCase{colors: bad, want: got, stats: *stats})
	}

	fg, fopts, plan := faultGoldenRun()
	var wg sync.WaitGroup
	spawn := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	for rep := 0; rep < 2; rep++ {
		spawn(func() {
			res, stats, err := deltacolor.ColorUnderFaults(fg, fopts, plan)
			checkFaultGolden(t, res, stats, err)
		})
		for _, c := range cases {
			spawn(func() {
				res, err := deltacolor.Color(c.g, c.opts)
				if err != nil {
					t.Errorf("%v: concurrent Color: %v", c.opts.Algorithm, err)
					return
				}
				if hashColors(res.Colors) != hashColors(c.want.Colors) || res.Rounds != c.want.Rounds ||
					!reflect.DeepEqual(res.Phases, c.want.Phases) {
					t.Errorf("%v: concurrent Color differs from its serial run (rounds %d vs %d)",
						c.opts.Algorithm, res.Rounds, c.want.Rounds)
				}
			})
		}
		spawn(func() {
			for k, c := range recolors {
				got := append([]int(nil), c.colors...)
				stats, err := deltacolor.Recolor(rg, got, 4, int64(k+1))
				if err != nil {
					t.Errorf("concurrent Recolor %d: %v", k+1, err)
					continue
				}
				if !reflect.DeepEqual(got, c.want) || *stats != c.stats {
					t.Errorf("concurrent Recolor %d differs from its serial run: %+v vs %+v", k+1, *stats, c.stats)
				}
				if err := verify.DeltaColoring(rg, got, 4); err != nil {
					t.Errorf("concurrent Recolor %d: %v", k+1, err)
				}
			}
		})
	}
	wg.Wait()
}
