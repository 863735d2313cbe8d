package exp

import (
	"strconv"
	"strings"
	"testing"
)

// Acceptance tests for the experiment claims themselves, in quick mode:
// the *shapes* the full-scale tables report must hold on every run, not just
// the published one. Quick mode is noisier than the full suite, so only
// the robust invariants are asserted.

func atoi(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		t.Fatalf("expected integer cell, got %q", s)
	}
	return v
}

func atof(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("expected float cell, got %q", s)
	}
	return v
}

// E4: the randomized algorithm must beat the baseline on every row.
func TestClaimE4RandomizedBeatsBaseline(t *testing.T) {
	tb := E4Baseline(Config{Quick: true, Seed: 11})
	for _, row := range tb.Rows {
		randRounds := atoi(t, row[3])
		baseRounds := atoi(t, row[5])
		if baseRounds <= randRounds {
			t.Fatalf("row %v: baseline (%d) did not exceed randomized (%d)", row, baseRounds, randRounds)
		}
	}
}

// E5: every qualifying ball must satisfy the expansion bound (the
// "satisfied" cell is "k/k").
func TestClaimE5BoundAlwaysSatisfied(t *testing.T) {
	tb := E5Expansion(Config{Quick: true, Seed: 13})
	for _, row := range tb.Rows {
		parts := strings.Split(row[5], "/")
		if len(parts) != 2 {
			t.Fatalf("malformed satisfied cell %q", row[5])
		}
		if parts[0] != parts[1] {
			t.Fatalf("row %v: %s of %s qualifying balls satisfied the bound", row, parts[0], parts[1])
		}
	}
}

// E7: every Brooks repair stays within the Theorem 5 radius bound.
func TestClaimE7WithinBound(t *testing.T) {
	tb := E7Brooks(Config{Quick: true, Seed: 17})
	for _, row := range tb.Rows {
		if maxRad, bound := atoi(t, row[4]), atoi(t, row[5]); maxRad > bound {
			t.Fatalf("row %v: radius %d > bound %d", row, maxRad, bound)
		}
	}
}

// E7b: forced instances exist and still stay within the bound.
func TestClaimE7bForcedWithinBound(t *testing.T) {
	tb := E7Adversarial(Config{Quick: true, Seed: 19})
	anyForced := false
	for _, row := range tb.Rows {
		forced := atoi(t, row[3])
		if forced > 0 {
			anyForced = true
		}
		if maxRad, bound := atoi(t, row[4]), atoi(t, row[5]); maxRad > bound {
			t.Fatalf("row %v: radius %d > bound %d", row, maxRad, bound)
		}
	}
	if !anyForced {
		t.Fatal("no forced instances constructed in any family")
	}
}

// E9: the structural lemmas admit zero violations.
func TestClaimE9ZeroViolations(t *testing.T) {
	tb := E9Structure(Config{Quick: true, Seed: 23})
	for _, row := range tb.Rows {
		if v10, v13 := atoi(t, row[3]), atoi(t, row[4]); v10 != 0 || v13 != 0 {
			t.Fatalf("row %v: lemma violations (%d, %d)", row, v10, v13)
		}
	}
}

// E1: rounds normalized by (log log n)² stay within a loose constant
// band — the quick-mode form of the Theorem 1 shape.
func TestClaimE1NormalizedRoundsBounded(t *testing.T) {
	tb := E1SmallDelta(Config{Quick: true, Seed: 29})
	for _, row := range tb.Rows {
		norm := atof(t, row[4])
		if norm <= 0 || norm > 200 {
			t.Fatalf("row %v: rounds/(loglog n)² = %v outside sanity band", row, norm)
		}
	}
}

// E13: batched repair rounds must scale with batches, not holes — on every
// row the batched charge beats the summed charge by at least 5x and the
// batch count stays tiny while the hole count grows.
func TestClaimE13BatchedBeatsSummed(t *testing.T) {
	tb := E13RepairTail(Config{Quick: true, Seed: 17, Strict: true})
	if len(tb.Rows) == 0 {
		t.Fatal("E13 produced no rows")
	}
	for _, row := range tb.Rows {
		holes := atoi(t, row[2])
		batches := atoi(t, row[3])
		summed := atoi(t, row[4])
		batched := atoi(t, row[5])
		if batched*5 > summed {
			t.Fatalf("row %v: batched %d not at least 5x below summed %d", row, batched, summed)
		}
		if batches > 2 {
			t.Fatalf("row %v: %d batches for the constructed workloads, want <= 2", row, batches)
		}
		if holes <= batches {
			t.Fatalf("row %v: %d holes vs %d batches — workload does not force batching", row, holes, batches)
		}
		if ratio := atof(t, row[6]); ratio >= 1 {
			t.Fatalf("row %v: ratio %.4f >= 1", row, ratio)
		}
	}
}
