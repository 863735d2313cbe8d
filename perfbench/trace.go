package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"deltacolor"
	"deltacolor/graph"
	"deltacolor/internal/brooks"
	"deltacolor/internal/core"
	"deltacolor/internal/dist"
	"deltacolor/internal/gallai"
	"deltacolor/local"
	"deltacolor/verify"
)

// minPairs is the fewest untraced/traced call pairs a traced run makes.
const minPairs = 3

// phaseLeaves are the leaf-span names the four pipelines charge, with any
// "[i]" index stripped. Each is reported as phase.<leaf>_ms on every
// workload (0 where the pipeline has no such phase); leaves not listed
// here are summed into phase.other_ms.
var phaseLeaves = []string{
	// randomized
	"dcc-select", "dcc-ruling-set", "dcc-layers", "marking", "happy-layers",
	"small-anchors", "small-ruling-set", "small-layers", "small-anchors-color",
	"C", "B", "D", "B0-bruteforce",
	// deterministic and netdec
	"decomposition", "ruling-set", "layering", "layers", "brooks-B0-sched", "brooks-B0-batch",
	// shared
	"linial", "repair-sched", "repair-batch",
	// baseline
	"reduce", "greedy-sweeps", "token-sched", "token-batch",
}

// runTraced reports the per-layer metrics on the workload's first
// instance. It interleaves untraced calls with calls traced by a
// local.TraceFull tracer (same instance, so the work is identical), then
// times direct calls into the layers' public entry points on that graph,
// each under a span of its own. The spans and the last traced call's engine
// rounds are written to out as a Chrome trace when out is not empty.
func runTraced(w workload, seed int64, seconds int, out string) (report, error) {
	c := &client{alg: w.alg, first: map[int]fingerprint{}}
	if _, err := c.setUp(w, seed, 0); err != nil {
		return report{}, err
	}
	tr := local.NewTracer(local.TraceFull, 0)
	p := &prober{tr: tr, root: &local.Span{Name: "perfbench " + w.name, StartNanos: tr.Now().Nanoseconds()}}

	runtime.GC()
	var untraced, traced, gcs []float64
	var calls []map[string]metric
	var last sample
	dur := time.Duration(seconds) * time.Second
	start := time.Now()
	for i := 0; i < minPairs || time.Since(start) < dur; i++ {
		if u, ok := c.call(0); ok {
			untraced = append(untraced, u.wall.Seconds())
			gcs = append(gcs, float64(u.gcs))
		}
		tr.Reset()
		local.SetDefaultTracer(tr)
		t, ok := c.call(0)
		local.SetDefaultTracer(nil)
		if ok {
			traced = append(traced, t.wall.Seconds())
			calls = append(calls, callLayers(t, tr.Counters()))
			last = t
		}
	}
	m := map[string]metric{
		"trace.overhead_ratio":  {ratio(median(traced), median(untraced)), "ratio"},
		"go.gc_cycles_per_call": {mean(gcs), "count"},
	}
	if len(calls) > 0 {
		for k, v := range calls[0] {
			var xs []float64
			for _, l := range calls {
				xs = append(xs, l[k].Value)
			}
			m[k] = metric{median(xs), v.Unit}
		}
		m["brooks.repairs"] = metric{float64(last.res.Repairs), "count"}
		p.root.Children = append(p.root.Children, last.res.Span)
	}

	if err := probeLayers(p, m, w, seed, c.inst[0], last.res); err != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: layer probe: %v\n", w.name, err)
	}
	p.root.DurNanos = tr.Now().Nanoseconds() - p.root.StartNanos
	fmt.Printf("perfbench workload=%s alg=%s n=%d seed=%d gomaxprocs=%d pairs=%d\n",
		w.name, w.alg, c.inst[0].g.N(), seed, runtime.GOMAXPROCS(0), len(traced))
	if out != "" {
		if err := writeTrace(out, tr.Dump(p.root)); err != nil {
			return report{}, err
		}
	}
	return report{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}, nil
}

// callLayers derives the engine and phase metrics of one traced call.
func callLayers(s sample, ctr local.Counters) map[string]metric {
	wall := float64(s.wall.Nanoseconds())
	engine := float64(ctr.StepNanos + ctr.DeliverNanos)
	msgs := float64(ctr.Messages())
	l := map[string]metric{
		"local.engine_runs":    {float64(ctr.Runs), "count"},
		"local.engine_rounds":  {float64(ctr.Rounds), "rounds"},
		"local.messages":       {msgs, "count"},
		"local.step_ms":        {float64(ctr.StepNanos) / 1e6, "ms"},
		"local.deliver_ms":     {float64(ctr.DeliverNanos) / 1e6, "ms"},
		"local.ns_per_message": {ratio(engine, msgs), "ns"},
		"local.engine_share":   {ratio(engine, wall), "ratio"},
		"phase.other_ms":       {0, "ms"},
	}
	for _, name := range phaseLeaves {
		l["phase."+name+"_ms"] = metric{0, "ms"}
	}
	leaves := 0.0
	s.res.Span.Walk(func(sp *local.Span, depth int) {
		if depth == 0 || len(sp.Children) > 0 {
			return
		}
		name, _, _ := strings.Cut(sp.Name, "[")
		key := "phase." + name + "_ms"
		if _, known := l[key]; !known {
			key = "phase.other_ms"
		}
		l[key] = metric{l[key].Value + float64(sp.DurNanos)/1e6, "ms"}
		leaves += float64(sp.DurNanos)
	})
	// Wall time outside every leaf span: work a pipeline does between its
	// charges (the baseline's RepairHoles runs before its span group opens).
	l["phase.unattributed_ms"] = metric{(wall - leaves) / 1e6, "ms"}
	l["phase.span_coverage"] = metric{ratio(leaves, wall), "ratio"}
	return l
}

// probeLayers times direct calls into the public entry points of every
// layer on the instance's graph, with the pipelines' own parameters, adding
// the results to m. It reports the first probe whose output is wrong.
func probeLayers(p *prober, m map[string]metric, w workload, seed int64, in instance, res *deltacolor.Result) error {
	g, s0, delta, n := in.g, in.seed, in.delta, in.g.N()
	R := core.RandOptions{}.AutoParams(n, delta).R // the randomized pipeline's DCC radius
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	var probeErr error
	check := func(what string, err error) {
		if err != nil && probeErr == nil {
			probeErr = fmt.Errorf("%s: %w", what, err)
		}
	}

	// graph: the BFS kernels under DCC search (FindDCC) and the AGLP
	// ruling set.
	p.layer("graph")
	m["graph.gen_ms"] = metric{p.time("gen", 3, func() {
		_, err := w.graph(rand.New(rand.NewSource(seed)))
		check("gen", err)
	}) / 1e6, "ms"}
	bfsSources := rng.Perm(n)[:min(n, 64)]
	m["graph.bfs_limited_us"] = metric{p.time("BFSLimited", 3, func() {
		for _, v := range bfsSources {
			g.BFSLimited(v, R)
		}
	}) / 1e3 / float64(len(bfsSources)), "us"}
	msSources := rng.Perm(n)[:max(1, n/8)]
	m["graph.multi_source_dist_us"] = metric{p.time("MultiSourceDist", 5, func() {
		g.MultiSourceDist(msSources)
	}) / 1e3, "us"}

	// local: network construction (the baseline builds a network per run).
	p.layer("local")
	m["local.new_network_us"] = metric{p.time("NewNetwork", 5, func() {
		local.NewNetwork(g, s0)
	}) / 1e3, "us"}

	// internal/dist primitives, each on a network built outside its span.
	p.layer("dist")
	var base []int
	var k int
	m["dist.linial_ms"] = metric{p.timeOn(g, s0, "Linial", 3, func(net *local.Network) {
		base, k, _ = dist.Linial(net)
		check("linial", dist.VerifyColoring(g, base))
	}) / 1e6, "ms"}
	var reduced []int
	m["dist.reduce_colors_ms"] = metric{p.timeOn(g, s0+1, "ReduceColors", 3, func(net *local.Network) {
		var err error
		reduced, _, err = dist.ReduceColors(net, base, k, delta+1)
		check("reduce colors", err)
	}) / 1e6, "ms"}
	var misRounds int
	m["dist.luby_mis_ms"] = metric{p.timeOn(g, s0, "LubyMIS", 3, func(net *local.Network) {
		var inMIS []bool
		inMIS, misRounds = dist.LubyMIS(net, nil)
		check("luby mis", checkMIS(g, inMIS))
	}) / 1e6, "ms"}
	m["dist.luby_mis_rounds"] = metric{float64(misRounds), "rounds"}
	beta := 1.0 / math.Max(1, math.Log(float64(n+2))) // the netdec pipeline's β
	m["dist.decompose_ms"] = metric{p.time("Decompose", 3, func() {
		dec := dist.Decompose(g, nil, beta, s0)
		check("decompose", dist.VerifyDecomposition(g, nil, dec))
	}) / 1e6, "ms"}

	// internal/gallai: the randomized pipeline's DCC selection.
	p.layer("gallai")
	var dccs [][]int
	m["gallai.select_dccs_ms"] = metric{p.time("SelectDCCs", 1, func() {
		dccs, _, _ = gallai.SelectDCCs(g, R)
	}) / 1e6, "ms"}
	m["gallai.dccs"] = metric{float64(len(dccs)), "count"}

	// internal/core: precondition check, the deterministic pipeline's
	// ruling set at its spacing, and the layering over that set.
	p.layer("core")
	m["core.check_nice_ms"] = metric{p.time("CheckNice", 3, func() {
		_, err := core.CheckNice(g, 3)
		check("check nice", err)
	}) / 1e6, "ms"}
	var rs *core.DetRulingSet
	m["core.ruling_set_ms"] = metric{p.time("DetRulingSetCompute", 1, func() {
		rs = core.DetRulingSetCompute(g, nil, 6*brooks.SearchRadius(n, delta)+3)
	}) / 1e6, "ms"}
	m["core.ruling_set_rounds"] = metric{float64(rs.Rounds), "rounds"}
	var rsBase []int
	for v, inSet := range rs.InSet {
		if inSet {
			rsBase = append(rsBase, v)
		}
	}
	m["core.layering_us"] = metric{p.time("Layering", 5, func() {
		core.Layering(g, rsBase, nil)
	}) / 1e3, "us"}

	// internal/brooks: batched repair of every node ReduceColors left on
	// color Δ, a superset of the baseline's stuck set.
	p.layer("brooks")
	colors := append([]int(nil), reduced...)
	var holes []int
	for v, col := range colors {
		if col == delta {
			colors[v] = -1
			holes = append(holes, v)
		}
	}
	br := &brooks.BatchResult{}
	m["brooks.repair_ms"] = metric{p.time("RepairHoles", 1, func() {
		var err error
		if br, err = brooks.RepairHoles(g, colors, holes, delta, s0); err != nil {
			check("repair holes", err)
			br = &brooks.BatchResult{}
		}
	}) / 1e6, "ms"}
	check("repaired coloring", verify.DeltaColoring(g, colors, delta))
	m["brooks.holes"] = metric{float64(len(holes)), "count"}
	m["brooks.fixed"] = metric{float64(br.Fixed), "count"}
	m["brooks.batches"] = metric{float64(len(br.Batches)), "count"}
	m["brooks.batch_rounds"] = metric{float64(br.TotalRounds()), "rounds"}
	m["brooks.summed_rounds"] = metric{float64(br.SummedRounds), "rounds"}
	m["brooks.fixed_per_batch"] = metric{ratio(float64(br.Fixed), float64(len(br.Batches))), "ratio"}

	// verify: the check the benchmark runs outside the timed region.
	if res != nil {
		p.layer("verify")
		m["verify.delta_coloring_us"] = metric{p.time("DeltaColoring", 5, func() {
			check("verify", verify.DeltaColoring(g, res.Colors, delta))
		}) / 1e3, "us"}
	}

	p.layer("host")
	var ref float64
	p.time("ref", 1, func() { ref = hostRefMs(g) })
	m["host.ref_ms"] = metric{ref, "ms"}
	return probeErr
}

// prober times direct calls into the layers, recording one span per call
// under a span per layer.
type prober struct {
	tr   *local.Tracer
	root *local.Span
	cur  *local.Span
}

func (p *prober) layer(name string) {
	p.cur = &local.Span{Name: name, StartNanos: p.tr.Now().Nanoseconds()}
	p.root.Children = append(p.root.Children, p.cur)
}

// time runs fn reps times, each under its own span, and returns the median
// wall time in nanoseconds.
func (p *prober) time(name string, reps int, fn func()) float64 {
	var ds []float64
	for i := 0; i < reps; i++ {
		start := p.tr.Now()
		fn()
		d := p.tr.Now() - start
		p.cur.Children = append(p.cur.Children, &local.Span{Name: name, StartNanos: start.Nanoseconds(), DurNanos: d.Nanoseconds()})
		p.cur.DurNanos = (start + d).Nanoseconds() - p.cur.StartNanos
		ds = append(ds, float64(d))
	}
	return median(ds)
}

// timeOn is time for a distributed primitive: each repetition runs on a
// fresh network built outside the timed span.
func (p *prober) timeOn(g *graph.G, seed int64, name string, reps int, fn func(*local.Network)) float64 {
	var ds []float64
	for i := 0; i < reps; i++ {
		net := local.NewNetwork(g, seed)
		ds = append(ds, p.time(name, 1, func() { fn(net) }))
	}
	return median(ds)
}

// checkMIS reports whether in is a maximal independent set of g.
func checkMIS(g *graph.G, in []bool) error {
	for v := 0; v < g.N(); v++ {
		covered := in[v]
		for _, u := range g.Neighbors(v) {
			if in[v] && in[u] {
				return fmt.Errorf("MIS nodes %d and %d are adjacent", v, u)
			}
			covered = covered || in[u]
		}
		if !covered {
			return fmt.Errorf("node %d has no MIS node in its closed neighborhood", v)
		}
	}
	return nil
}

func writeTrace(path string, d *local.TraceDump) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := local.WriteChromeTrace(f, d); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
