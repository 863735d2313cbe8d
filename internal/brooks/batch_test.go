package brooks

import (
	"math/rand"
	"testing"
	"testing/quick"

	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/local"
	"deltacolor/verify"
)

// checkerboard returns the 2-coloring of a grid (proper, uses colors {0,1}
// out of Δ=4) — the cheapest possible "proper Δ-coloring" to punch holes
// into.
func checkerboard(rows, cols int) (*graph.G, []int) {
	g := gen.Grid(rows, cols)
	colors := make([]int, g.N())
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			colors[r*cols+c] = (r + c) % 2
		}
	}
	return g, colors
}

// repairSequential is the pre-batching safety net: fix holes one at a time
// in ascending ID order, returning the summed rounds. Kept as the
// byte-identical reference the batch engine is compared against.
func repairSequential(t *testing.T, g *graph.G, colors []int, delta int) int {
	t.Helper()
	summed := 0
	for v := 0; v < g.N(); v++ {
		if colors[v] >= 0 {
			continue
		}
		res, err := FixOne(g, colors, v, delta)
		if err != nil {
			t.Fatalf("sequential repair of %d: %v", v, err)
		}
		copy(colors, res.Colors)
		summed += res.Rounds
	}
	return summed
}

// TestFixOneTouchWithinRadius pins the locality contract the batch engine
// schedules against: every node FixOne changes lies within distance
// Result.Radius of the repaired node.
func TestFixOneTouchWithinRadius(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 32 + 2*rng.Intn(40)
		d := 3 + rng.Intn(3)
		if n*d%2 != 0 {
			n++
		}
		g, err := gen.RandomRegular(rng, n, d)
		if err != nil {
			continue
		}
		v := rng.Intn(n)
		partial := greedyAllBut(t, g, v, d)
		res, err := FixOne(g, partial, v, d)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dist, _ := g.MultiSourceDist([]int{v})
		for u := 0; u < n; u++ {
			if res.Colors[u] != partial[u] && dist[u] > res.Radius {
				t.Fatalf("seed %d: node %d at distance %d changed, radius is %d", seed, u, dist[u], res.Radius)
			}
		}
	}
}

// TestFixOneAdjacentHoles is the multi-hole regression: with two adjacent
// uncolored holes, the token procedure must resolve the first hole in
// ModeFree (an uncolored neighbor is slack, so a walk can never start, let
// alone step into the other hole) and leave the second hole untouched for
// its own repair.
func TestFixOneAdjacentHoles(t *testing.T) {
	g, colors := checkerboard(6, 6)
	delta := 4
	u, v := 14, 15 // horizontally adjacent interior cells
	if !g.HasEdge(u, v) {
		t.Fatalf("setup: %d-%d not adjacent", u, v)
	}
	colors[u], colors[v] = -1, -1

	res, err := FixOne(g, colors, u, delta)
	if err != nil {
		t.Fatalf("FixOne with adjacent hole: %v", err)
	}
	if res.Mode != ModeFree {
		t.Fatalf("mode = %v, want ModeFree (adjacent hole is slack)", res.Mode)
	}
	if res.Colors[v] != -1 {
		t.Fatalf("repairing %d colored the adjacent hole %d with %d", u, v, res.Colors[v])
	}
	if res.Colors[u] < 0 {
		t.Fatalf("hole %d left uncolored", u)
	}
	// The second hole completes against the updated coloring.
	res2, err := FixOne(g, res.Colors, v, delta)
	if err != nil {
		t.Fatalf("second hole: %v", err)
	}
	if err := verify.DeltaColoring(g, res2.Colors, delta); err != nil {
		t.Fatal(err)
	}
}

// TestFixOneAdjacentHolesDense repeats the regression where the holes have
// no slack besides each other: on a random regular graph every colored
// neighbor constrains, so the uncolored neighbor is exactly what prevents
// a walk.
func TestFixOneAdjacentHolesDense(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		g, err := gen.RandomRegular(rng, 64, 4)
		if err != nil {
			t.Fatal(err)
		}
		v := rng.Intn(64)
		partial := greedyAllBut(t, g, v, 4)
		u := g.Neighbors(v)[0]
		partial[u] = -1 // second, adjacent hole

		res, err := FixOne(g, partial, v, 4)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Mode != ModeFree || res.Radius != 0 {
			t.Fatalf("seed %d: mode=%v radius=%d, want free at radius 0", seed, res.Mode, res.Radius)
		}
		if res.Colors[u] != -1 {
			t.Fatalf("seed %d: adjacent hole %d was touched", seed, u)
		}
	}
}

// TestRepairBatchedVsSummedAccounting is the acceptance unit test: with k
// pairwise-independent holes, the batch engine must run one batch, charge
// the max (not the sum), and produce colors byte-identical to the
// sequential safety net.
func TestRepairBatchedVsSummedAccounting(t *testing.T) {
	g, colors := checkerboard(20, 20)
	delta := 4
	var holes []int
	for r := 0; r < 20; r += 3 {
		for c := 0; c < 20; c += 3 {
			v := r*20 + c
			colors[v] = -1
			holes = append(holes, v)
		}
	}
	k := len(holes)
	if k < 10 {
		t.Fatalf("setup produced only %d holes", k)
	}

	seq := append([]int(nil), colors...)
	summed := repairSequential(t, g, seq, delta)

	res, err := Repair(g, colors, delta, 7, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.DeltaColoring(g, colors, delta); err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 1 {
		t.Fatalf("batches = %d, want 1 (holes spaced >= 3 apart, radius-0 balls)", len(res.Batches))
	}
	if res.Fixed != k {
		t.Fatalf("fixed = %d, want %d", res.Fixed, k)
	}
	if res.SummedRounds != summed {
		t.Fatalf("engine summed counterfactual %d != sequential charge %d", res.SummedRounds, summed)
	}
	// Charged rounds scale with batches (max + scheduling), not with k.
	if res.TotalRounds() >= summed {
		t.Fatalf("batched charge %d >= summed charge %d for %d independent holes", res.TotalRounds(), summed, k)
	}
	if res.Batches[0].Rounds != 1 {
		t.Fatalf("batch exec rounds = %d, want max=1 (all ModeFree)", res.Batches[0].Rounds)
	}
	for v := range colors {
		if colors[v] != seq[v] {
			t.Fatalf("node %d: batched color %d != sequential %d (independent repairs must be byte-identical)", v, colors[v], seq[v])
		}
	}
}

// TestRepairAdjacentHolesBatches: holes punched in adjacent pairs conflict
// pairwise, so the engine needs two batches — and still terminates with a
// proper coloring.
func TestRepairAdjacentHolesBatches(t *testing.T) {
	g, colors := checkerboard(12, 12)
	delta := 4
	holes := 0
	for r := 1; r < 11; r += 4 {
		for c := 1; c < 11; c += 4 {
			colors[r*12+c] = -1
			colors[r*12+c+1] = -1
			holes += 2
		}
	}
	res, err := Repair(g, colors, delta, 3, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.DeltaColoring(g, colors, delta); err != nil {
		t.Fatal(err)
	}
	if res.Fixed != holes {
		t.Fatalf("fixed = %d, want %d", res.Fixed, holes)
	}
	if len(res.Batches) != 2 {
		t.Fatalf("batches = %d, want 2 (adjacent pairs conflict pairwise)", len(res.Batches))
	}
	if res.TotalRounds() >= res.SummedRounds {
		t.Fatalf("batched %d >= summed %d over %d holes", res.TotalRounds(), res.SummedRounds, holes)
	}
}

// TestRepairChangedMirror: applying the Changed list to a mirror of the
// pre-repair coloring must reproduce the engine's output exactly — the
// contract slocal's incremental bookkeeping relies on.
func TestRepairChangedMirror(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := gen.RandomRegular(rng, 96, 4)
	if err != nil {
		t.Fatal(err)
	}
	v := rng.Intn(96)
	colors := greedyAllBut(t, g, v, 4)
	for i := 0; i < 5; i++ {
		colors[rng.Intn(96)] = -1
	}
	mirror := append([]int(nil), colors...)

	res, err := Repair(g, colors, 4, 11, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fixed > 0 && len(res.Changed) == 0 {
		t.Fatal("empty Changed with repairs executed")
	}
	for _, u := range res.Changed {
		mirror[u] = colors[u]
	}
	for u := range colors {
		if mirror[u] != colors[u] {
			t.Fatalf("node %d changed but is missing from Changed", u)
		}
	}
}

// TestRepairHolesSkipsColoredAndDedupes: colored entries and duplicates in
// the hole list are ignored.
func TestRepairHolesSkipsColoredAndDedupes(t *testing.T) {
	g, colors := checkerboard(6, 6)
	colors[7] = -1
	res, err := RepairHoles(g, colors, []int{7, 7, 0, 35}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fixed != 1 {
		t.Fatalf("fixed = %d, want 1", res.Fixed)
	}
	if err := verify.DeltaColoring(g, colors, 4); err != nil {
		t.Fatal(err)
	}
	// No holes at all: a no-op result.
	res2, err := Repair(g, colors, 4, 1, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Fixed != 0 || len(res2.Batches) != 0 || res2.TotalRounds() != 0 {
		t.Fatalf("no-op repair produced %+v", res2)
	}
}

// TestRepairSingleHoleNoScheduling: one hole needs no MIS — zero
// scheduling rounds, identical to a bare FixOne.
func TestRepairSingleHoleNoScheduling(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, err := gen.RandomRegular(rng, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	v := rng.Intn(64)
	colors := greedyAllBut(t, g, v, 4)
	ref, err := FixOne(g, colors, v, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Repair(g, colors, 4, 77, local.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 1 || res.Batches[0].SchedRounds != 0 {
		t.Fatalf("single hole scheduled: %+v", res.Batches)
	}
	if res.TotalRounds() != ref.Rounds || res.SummedRounds != ref.Rounds {
		t.Fatalf("rounds %d/%d, want FixOne's %d", res.TotalRounds(), res.SummedRounds, ref.Rounds)
	}
	for u := range colors {
		if colors[u] != ref.Colors[u] {
			t.Fatalf("node %d: engine %d != FixOne %d", u, colors[u], ref.Colors[u])
		}
	}
}

// Property: the batch engine completes arbitrary hole sets on random
// regular graphs into proper Δ-colorings, deterministically per seed.
func TestRepairProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 24 + 2*rng.Intn(30)
		d := 3 + rng.Intn(3)
		if n*d%2 != 0 {
			n++
		}
		g, err := gen.RandomRegular(rng, n, d)
		if err != nil {
			return true // rare sampling failure; skip
		}
		v := rng.Intn(n)
		colors := greedyAllBut(t, g, v, d)
		for i := 0; i < 1+rng.Intn(6); i++ {
			colors[rng.Intn(n)] = -1
		}
		again := append([]int(nil), colors...)

		res, err := Repair(g, colors, d, seed, local.Config{})
		if err != nil {
			return false
		}
		if verify.DeltaColoring(g, colors, d) != nil {
			return false
		}
		// Determinism: same seed, same input, same everything.
		res2, err := Repair(g, again, d, seed, local.Config{})
		if err != nil {
			return false
		}
		if res.Fixed != res2.Fixed || res.TotalRounds() != res2.TotalRounds() {
			return false
		}
		for u := range colors {
			if colors[u] != again[u] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
