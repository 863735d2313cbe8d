// Command perfbench is the repository's end-to-end benchmark: the time a
// deltacolor.Color caller waits for a verified Δ-coloring, on four pipeline
// workloads, plus a traced run that splits each call into its layers.
//
// It drives Color as one closed-loop client — one call at a time, from one
// process — and verifies every result with verify.DeltaColoring outside the
// timed region. The workload seed generates the graphs and the fixed list of
// per-call algorithm seeds; the library receives only the generated graphs.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload rand-rr4 --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"deltacolor"
	"deltacolor/graph"
	"deltacolor/graph/gen"
)

// workload is one input family and the pipeline run on it. The sizes are
// part of the definition: each is chosen so the named layer dominates the
// call (see BENCHMARK.json). The seed generates `instances` graphs, each
// paired with its own algorithm seed; the timed loop cycles through them.
type workload struct {
	name      string
	alg       deltacolor.Algorithm
	graph     func(rng *rand.Rand) (*graph.G, error)
	instances int
}

var workloads = []workload{
	// gallai DCC search dominates: radius-6 balls on an expander.
	{"rand-rr4", deltacolor.AlgAuto, randomRegular(4096), 7},
	// The core AGLP ruling set and the deterministic list coloring dominate.
	{"det-rr4", deltacolor.AlgDeterministic, randomRegular(4096), 9},
	// The local round engine dominates; gallai does no work. Kept small:
	// a 64×64 torus drifted with host memory contention.
	{"netdec-torus", deltacolor.AlgNetDec, relabeledTorus(45), 11},
	// brooks.RepairHoles dominates. Its cost varies several-fold from one
	// random graph to the next (n=2500: 0.8–3.7 s per call), so the
	// workload spreads over many smaller graphs to keep its median steady.
	{"baseline-rr4", deltacolor.AlgBaseline, randomRegular(1000), 300},
}

func randomRegular(n int) func(*rand.Rand) (*graph.G, error) {
	return func(rng *rand.Rand) (*graph.G, error) { return gen.RandomRegular(rng, n, 4) }
}

// relabeledTorus returns the side×side torus with node IDs permuted by the
// seed, so the seed changes the input the ID-driven pipelines see.
func relabeledTorus(side int) func(*rand.Rand) (*graph.G, error) {
	return func(rng *rand.Rand) (*graph.G, error) {
		t := gen.Torus(side, side)
		perm := rng.Perm(t.N())
		g := graph.New(t.N())
		for u := 0; u < t.N(); u++ {
			for _, v := range t.Neighbors(u) {
				if u < v {
					if err := g.AddEdge(perm[u], perm[v]); err != nil {
						return nil, err
					}
				}
			}
		}
		return g, nil
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// maxProcs is the fixed GOMAXPROCS of every run. One worker runs the round
// engine's inline path, which a contended second core cannot stall at the
// round barrier; it was also no slower than two on a 2-core host.
const maxProcs = 1

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed (graph and per-call algorithm seeds)")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload in %v, --seconds >= 0, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(maxProcs)

	var (
		rep report
		err error
	)
	if *trace == 0 {
		rep, err = runEndToEnd(*w, *seed, *seconds)
	} else {
		out := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-seed%d.trace.json", w.name, *seed))
		rep, err = runTraced(*w, *seed, *seconds, out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printTable(rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func printTable(rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-32s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
}
