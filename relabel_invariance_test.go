package deltacolor

// External-ID invariance golden for the cache-locality relabeling: the
// LOCAL runtime may lay its tables out in any internal order, but every
// observable result — colors, rounds, repair counts, phase breakdowns —
// must be byte-identical with relabeling on (the default, which the
// pinned goldens in determinism_test.go already run under) and off (the
// local.Config.NoRelabel ablation, threaded to every network of the
// run). A divergence here means an ID crossed the translation boundary
// untranslated. Options has no relabel switch, so this is an internal
// test driving the unexported color entry point.

import (
	"math/rand"
	"reflect"
	"testing"

	"deltacolor/graph/gen"
	"deltacolor/local"
)

func TestRelabelInvarianceAcrossPipelines(t *testing.T) {
	cases := []struct {
		name string
		n, d int
		alg  Algorithm
		seed int64
		slow bool
	}{
		{name: "rand", n: 256, d: 4, alg: AlgRandomized, seed: 1},
		{name: "det", n: 128, d: 4, alg: AlgDeterministic, seed: 3, slow: true},
		{name: "netdec", n: 128, d: 4, alg: AlgNetDec, seed: 4, slow: true},
		{name: "baseline", n: 256, d: 4, alg: AlgBaseline, seed: 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("slow invariance case skipped in -short")
			}
			g := gen.MustRandomRegular(rand.New(rand.NewSource(tc.seed)), tc.n, tc.d)
			run := func(relabel bool) *Result {
				res, err := color(g, Options{Algorithm: tc.alg, Seed: tc.seed}, local.Config{NoRelabel: !relabel})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			on, off := run(true), run(false)
			if !reflect.DeepEqual(on.Colors, off.Colors) {
				t.Errorf("colors differ between relabel on and off")
			}
			if on.Rounds != off.Rounds {
				t.Errorf("rounds differ: on=%d off=%d", on.Rounds, off.Rounds)
			}
			if on.Repairs != off.Repairs {
				t.Errorf("repairs differ: on=%d off=%d", on.Repairs, off.Repairs)
			}
			if !reflect.DeepEqual(on.Phases, off.Phases) {
				t.Errorf("phase breakdowns differ:\non:  %v\noff: %v", on.Phases, off.Phases)
			}
		})
	}
}
