package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
)

// spec is the part of BENCHMARK.json the program must honor.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny returns the workloads at a size that runs in milliseconds.
func tiny() []workload {
	var out []workload
	for _, w := range workloads {
		w.graph = randomRegular(64)
		if w.name == "netdec-torus" {
			w.graph = relabeledTorus(8)
		}
		w.instances = 2
		out = append(out, w)
	}
	return out
}

func run(t *testing.T, w workload, seed int64, trace bool) report {
	t.Helper()
	var rep report
	var err error
	if trace {
		rep, err = runTraced(w, seed, 0, "")
	} else {
		rep, err = runEndToEnd(w, seed, 0)
	}
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", w.name, rep.Correct, rep.Attempted, rep.Failed)
	}
	return rep
}

func TestWorkloadsMatchSpec(t *testing.T) {
	var names []string
	for _, w := range readSpec(t).Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
}

func TestEveryMetricEmittedWithUnit(t *testing.T) {
	s := readSpec(t)
	for _, w := range tiny() {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			got := run(t, w, 1, trace).Metrics
			for _, m := range want {
				g, ok := got[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s not emitted", w.name, trace, m.Name)
				} else if g.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s unit %q, BENCHMARK.json says %q", w.name, trace, m.Name, g.Unit, m.Unit)
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: emitted %d metrics, BENCHMARK.json lists %d", w.name, trace, len(got), len(want))
			}
		}
	}
}

// exactCounts are the counts a later change may cite as evidence, with
// whether each comes from the traced run.
var exactCounts = []struct {
	name  string
	trace bool
}{
	{"rounds_p50", false},
	{"gallai.dccs", true},
	{"brooks.holes", true},
	{"local.messages", true},
	{"local.engine_rounds", true},
}

// TestExactCountsFollowSeed checks each exact count on its own: over the
// tiny workloads it is not always 0, it repeats exactly for one seed, and
// it changes on some workload with another seed.
func TestExactCountsFollowSeed(t *testing.T) {
	counts := func(seed int64) map[string][]float64 {
		out := map[string][]float64{}
		for _, w := range tiny() {
			byTrace := map[bool]report{false: run(t, w, seed, false), true: run(t, w, seed, true)}
			for _, c := range exactCounts {
				out[c.name] = append(out[c.name], byTrace[c.trace].Metrics[c.name].Value)
			}
		}
		return out
	}
	a, again, b := counts(1), counts(1), counts(2)
	for _, c := range exactCounts {
		xs := a[c.name]
		t.Logf("%s per workload: seed 1 %v, seed 2 %v", c.name, xs, b[c.name])
		if !slices.ContainsFunc(xs, func(x float64) bool { return x != 0 }) {
			t.Errorf("%s is 0 on every workload for seed 1", c.name)
		}
		if !reflect.DeepEqual(xs, again[c.name]) {
			t.Errorf("%s differs between runs of seed 1: %v, then %v", c.name, xs, again[c.name])
		}
		if reflect.DeepEqual(xs, b[c.name]) {
			t.Errorf("%s is the same for seeds 1 and 2 on every workload: %v", c.name, xs)
		}
	}
}
