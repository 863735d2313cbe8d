package exp

import (
	"bytes"
	"os"
	"testing"

	"deltacolor/local"
)

func runtimeRow(family string, n int, rps float64) RuntimeRow {
	return RuntimeRow{Family: family, N: n, Rounds: 8, Workers: 1, RoundsPerSec: rps}
}

func TestCompareRuntime(t *testing.T) {
	base := &RuntimeReport{Schema: RuntimeSchema, Rows: []RuntimeRow{
		runtimeRow("path", 1000, 100),
		runtimeRow("path", 10000, 50),
		runtimeRow("rr4", 10000, 40),
	}}

	ok := &RuntimeReport{Schema: RuntimeSchema, Rows: []RuntimeRow{
		runtimeRow("path", 1000, 10), // small-n regressions are not gated
		runtimeRow("path", 10000, 40),
		runtimeRow("rr4", 10000, 35),
	}}
	if err := CompareRuntime(ok, base, 0.30); err != nil {
		t.Fatalf("within tolerance, got %v", err)
	}

	bad := &RuntimeReport{Schema: RuntimeSchema, Rows: []RuntimeRow{
		runtimeRow("path", 10000, 30), // -40% at the largest common n
		runtimeRow("rr4", 10000, 39),
	}}
	if err := CompareRuntime(bad, base, 0.30); err == nil {
		t.Fatal("40% regression at largest n must fail")
	}

	disjoint := &RuntimeReport{Schema: RuntimeSchema, Rows: []RuntimeRow{
		runtimeRow("clique", 512, 5),
	}}
	if err := CompareRuntime(disjoint, base, 0.30); err == nil {
		t.Fatal("no common rows must fail, not pass vacuously")
	}
}

func TestCompareMultiWorker(t *testing.T) {
	mpRow := func(n int, rps, rpsMP float64) RuntimeRow {
		r := runtimeRow("rr4", n, rps)
		r.RoundsPerSecMP = rpsMP
		r.WorkersMP = 4
		return r
	}
	base := &RuntimeReport{Schema: RuntimeSchema, Rows: []RuntimeRow{
		runtimeRow("rr4", 1000, 200),
		runtimeRow("rr4", 10000, 100),
		runtimeRow("path", 10000, 500), // other families are not gated
	}}

	ok := &RuntimeReport{Schema: RuntimeSchema, Rows: []RuntimeRow{
		mpRow(1000, 190, 10), // small-n coordination overhead is not gated
		mpRow(10000, 95, 90), // within the 25% margin of base's 100
	}}
	if err := CompareMultiWorker(ok, base, 0.25); err != nil {
		t.Fatalf("within margin, got %v", err)
	}

	bad := &RuntimeReport{Schema: RuntimeSchema, Rows: []RuntimeRow{
		mpRow(10000, 95, 60), // -40% vs base's single-worker 100
	}}
	if err := CompareMultiWorker(bad, base, 0.25); err == nil {
		t.Fatal("multi-worker 40% slower than single-worker baseline must fail")
	}

	noSweep := &RuntimeReport{Schema: RuntimeSchema, Rows: []RuntimeRow{
		runtimeRow("rr4", 10000, 95), // RoundsPerSecMP == 0
	}}
	if err := CompareMultiWorker(noSweep, base, 0.25); err == nil {
		t.Fatal("report without a populated sweep must fail, not pass vacuously")
	}
}

// TestCompareRuntimeRefNormalized checks the machine-independence of the
// v3 gate: when both reports carry a reference-loop score, the comparison
// is on rounds/s ÷ RefScore, so a baseline from a 2× faster machine does
// not flag a same-speed-relative current run — and a real relative
// regression is still caught even when absolute rounds/s went up.
func TestCompareRuntimeRefNormalized(t *testing.T) {
	fast := &RuntimeReport{Schema: RuntimeSchema, RefScore: 200, Rows: []RuntimeRow{
		runtimeRow("path", 10000, 100), // ratio 0.5
	}}
	slowSameRatio := &RuntimeReport{Schema: RuntimeSchema, RefScore: 100, Rows: []RuntimeRow{
		runtimeRow("path", 10000, 48), // ratio 0.48: -4% relative, -52% absolute
	}}
	if err := CompareRuntime(slowSameRatio, fast, 0.30); err != nil {
		t.Fatalf("slower machine at the same ratio must pass: %v", err)
	}
	// Without normalization the same pair fails (absolute -52%).
	noRef := &RuntimeReport{Schema: RuntimeSchema, Rows: slowSameRatio.Rows}
	if err := CompareRuntime(noRef, &RuntimeReport{Schema: RuntimeSchema, Rows: fast.Rows}, 0.30); err == nil {
		t.Fatal("absolute fallback should flag the -52% drop")
	}
	fastButRegressed := &RuntimeReport{Schema: RuntimeSchema, RefScore: 1000, Rows: []RuntimeRow{
		runtimeRow("path", 10000, 150), // absolute +50%, ratio 0.15: -70% relative
	}}
	if err := CompareRuntime(fastButRegressed, fast, 0.30); err == nil {
		t.Fatal("relative regression on a faster machine must fail despite higher absolute rounds/s")
	}
}

func TestReferenceScorePositive(t *testing.T) {
	if testing.Short() {
		t.Skip("reference loop takes ~1s")
	}
	if s := ReferenceScore(); s <= 0 {
		t.Fatalf("reference score = %v, want > 0", s)
	}
}

func TestRuntimeReportRoundTripAndV1Baseline(t *testing.T) {
	rep := &RuntimeReport{Schema: RuntimeSchema, GoMaxProcs: 1, Rows: []RuntimeRow{runtimeRow("path", 1000, 100)}}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRuntimeReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || got.Rows[0].RoundsPerSec != 100 {
		t.Fatalf("round trip lost data: %+v", got)
	}

	// A v1-era baseline (no workers column) must parse and compare.
	v1 := bytes.NewBufferString(`{"schema":"deltacolor/bench-runtime/v1","gomaxprocs":1,
		"rows":[{"family":"path","n":1000,"rounds":16,"rounds_per_sec":90}]}`)
	base, err := ReadRuntimeReport(v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := CompareRuntime(rep, base, 0.30); err != nil {
		t.Fatalf("v2 vs v1 comparison: %v", err)
	}

	bad := bytes.NewBufferString(`{"schema":"bogus/v9"}`)
	if _, err := ReadRuntimeReport(bad); err == nil {
		t.Fatal("unknown schema must be rejected")
	}
}

// TestStrictQuickE12AndE11 smoke-runs two experiment runners with the
// strict dead-send gate installed: the harness protocols must stay free
// of late dead sends (a panic here is a protocol regression).
func TestStrictQuickE12AndE11(t *testing.T) {
	defer local.SetStrictDeadSends(false)
	cfg := Config{Quick: true, Seed: 31, Strict: true}
	if tb := E12Runtime(cfg); len(tb.Rows) == 0 {
		t.Fatal("E12 produced no rows")
	}
	if !local.StrictDeadSends() {
		t.Fatal("runner did not install the strict default")
	}
	if tb := E11Congest(cfg); len(tb.Rows) == 0 {
		t.Fatal("E11 produced no rows")
	}
}

// TestRuntimeQuickFamiliesGated keeps the CI delta gate non-vacuous:
// CompareRuntime silently skips a family with no (family, n) row shared
// by both reports, so every family of the quick sweep must have a row in
// the checked-in BENCH_runtime.json at an n the quick sweep also runs.
func TestRuntimeQuickFamiliesGated(t *testing.T) {
	f, err := os.Open("../../BENCH_runtime.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base, err := ReadRuntimeReport(f)
	if err != nil {
		t.Fatal(err)
	}
	baseRows := map[runtimeSize]bool{}
	for _, r := range base.Rows {
		baseRows[runtimeSize{r.Family, r.N}] = true
	}
	gated := map[string]bool{}
	families := map[string]bool{}
	for _, c := range runtimeCases(true) {
		families[c.family] = true
		if baseRows[c] {
			gated[c.family] = true
		}
	}
	for family := range families {
		if !gated[family] {
			t.Errorf("quick E12 family %q shares no n with BENCH_runtime.json; the delta gate would skip it", family)
		}
	}
}
