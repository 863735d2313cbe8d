// Comparison sweep: every algorithm in the library on the same workloads,
// side by side — the fastest way to see the paper's headline claim (the
// randomized algorithm beats the 25-year-old baseline, and the gap grows
// with n) on your own machine. A compact version of experiment E4.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"text/tabwriter"

	"deltacolor"
	"deltacolor/graph/gen"
	"deltacolor/verify"
)

func main() {
	algs := []deltacolor.Algorithm{
		deltacolor.AlgRandomized,
		deltacolor.AlgDeterministic,
		deltacolor.AlgNetDec,
		deltacolor.AlgBaseline,
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tn\tΔ\trandomized\tdeterministic\tnetdec\tbaseline\tbaseline/randomized")

	for _, e := range []int{8, 9, 10, 11} {
		n := 1 << e
		rng := rand.New(rand.NewSource(int64(e)))
		g := gen.MustRandomRegular(rng, n, 4)

		rounds := make([]int, len(algs))
		for i, alg := range algs {
			res, err := deltacolor.Color(g, deltacolor.Options{Algorithm: alg, Seed: int64(e)})
			if err != nil {
				log.Fatalf("%v on n=%d: %v", alg, n, err)
			}
			if err := verify.DeltaColoring(g, res.Colors, res.Delta); err != nil {
				log.Fatalf("%v produced an invalid coloring: %v", alg, err)
			}
			rounds[i] = res.Rounds
		}
		fmt.Fprintf(w, "random 4-regular\t%d\t4\t%d\t%d\t%d\t%d\t%.2fx\n",
			n, rounds[0], rounds[1], rounds[2], rounds[3],
			float64(rounds[3])/float64(rounds[0]))
	}

	// One structured workload for contrast: the torus (Δ = 4, all 4-cycles).
	g := gen.Torus(32, 32)
	fmt.Fprintln(w)
	rres, err := deltacolor.Color(g, deltacolor.Options{Algorithm: deltacolor.AlgRandomized, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	bres, err := deltacolor.Color(g, deltacolor.Options{Algorithm: deltacolor.AlgBaseline, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "torus 32x32\t%d\t4\t%d\t\t\t%d\t%.2fx\n",
		g.N(), rres.Rounds, bres.Rounds, float64(bres.Rounds)/float64(rres.Rounds))

	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrounds are simulated LOCAL communication rounds (the quantity the paper's theorems bound),")
	fmt.Println("not wall-clock time; run `go run ./cmd/benchsuite` for the full E1–E16 suite.")
}
