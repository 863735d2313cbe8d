// Command benchsuite runs the experiment suite E1–E16 (the runners of
// internal/exp, one per experiment) at full scale and prints every table
// as markdown. Use -quick for a smoke-scale pass and -only to
// select individual experiments. -strict turns any message staged for a
// halted neighbor into a hard failure (dead-send regression gate). E12 is
// the runtime-throughput benchmark; -runtimejson additionally serializes
// its report (BENCH_runtime.json), and -baseline compares the fresh E12
// numbers against a checked-in report, failing on a rounds/s regression
// beyond -maxregress at the largest common scale. -mpbaseline is the
// scheduler's parallel-speedup gate: the fresh rr4 multi-worker sweep
// must not be slower (beyond -mpmargin) than the single-worker rr4
// rounds/s recorded in the given report — CI runs E12 once at
// GOMAXPROCS=1 and once at GOMAXPROCS=4 and feeds the first run's JSON
// to the second. E14 is the
// cache-locality relabeling ablation; -localityjson serializes its report
// (BENCH_locality.json), and under -strict the run fails if relabeling on
// delivers fewer rr4 rounds/s than relabeling off at the largest n. E15 is
// the tracer-overhead measurement; -overheadjson serializes its report
// (BENCH_overhead.json), and under -strict the run fails if full tracing
// costs more than 10% throughput. E16 is the churn/fault-recovery
// comparison; -churnjson serializes its report (BENCH_churn.json), and
// under -strict the run fails unless incremental Recolor beats the full
// pipeline on rounds and wall time at the largest n and at least one
// fault plan heals. -cpuprofile/-memprofile write pprof profiles of the
// suite itself.
//
//	go run ./cmd/benchsuite                  # full suite (minutes)
//	go run ./cmd/benchsuite -quick           # smoke scale (seconds)
//	go run ./cmd/benchsuite -quick -strict   # + dead-send regression gate
//	go run ./cmd/benchsuite -only E4,E6      # a subset
//	go run ./cmd/benchsuite -only E12 -runtimejson BENCH_runtime.json
//	go run ./cmd/benchsuite -quick -only E12 -baseline BENCH_runtime.json
//	go run ./cmd/benchsuite -quick -strict -only E14 -localityjson BENCH_locality_quick.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"deltacolor/internal/exp"
	"deltacolor/internal/obs"
)

func main() {
	var (
		quick      = flag.Bool("quick", false, "run at smoke scale")
		seed       = flag.Int64("seed", 1, "experiment seed")
		only       = flag.String("only", "", "comma-separated experiment IDs (e.g. E1,E6); empty = all")
		csvOut     = flag.Bool("csv", false, "emit CSV instead of markdown (notes omitted)")
		rtJSON     = flag.String("runtimejson", "", "write the E12 runtime report to this path (implies running E12)")
		locJSON    = flag.String("localityjson", "", "write the E14 locality report to this path (implies running E14)")
		strict     = flag.Bool("strict", false, "fail hard on dead sends (messages staged for halted neighbors)")
		baseline   = flag.String("baseline", "", "compare the E12 report against this baseline JSON (implies running E12)")
		maxRegress = flag.Float64("maxregress", 0.30, "max tolerated rounds/s regression vs -baseline (fraction)")
		mpBaseline = flag.String("mpbaseline", "", "multi-worker gate: the fresh E12 rr4 sweep must not be slower than this report's single-worker rr4 rounds/s (implies running E12)")
		mpMargin   = flag.Float64("mpmargin", 0.25, "noise margin for -mpbaseline (fraction)")
		ovhJSON    = flag.String("overheadjson", "", "write the E15 tracer-overhead report to this path (implies running E15)")
		churnJSON  = flag.String("churnjson", "", "write the E16 churn/fault-recovery report to this path (implies running E16)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the suite to this path")
		memProfile = flag.String("memprofile", "", "write a heap profile at suite end to this path")
	)
	flag.Parse()

	stopCPU, err := obs.StartCPUProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsuite: %v\n", err)
		os.Exit(1)
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}

	runners := []struct {
		id string
		f  func(exp.Config) *exp.Table
	}{
		{"E1", exp.E1SmallDelta},
		{"E2", exp.E2LargeDelta},
		{"E3", exp.E3Deterministic},
		{"E4", exp.E4Baseline},
		{"E5", exp.E5Expansion},
		{"E6", exp.E6Shattering},
		{"E7", exp.E7Brooks},
		{"E7B", exp.E7Adversarial},
		{"E8", exp.E8NetDec},
		{"E9", exp.E9Structure},
		{"E10", exp.E10Ablations},
		{"E11", exp.E11Congest},
		{"E13", exp.E13RepairTail},
	}

	cfg := exp.Config{Quick: *quick, Seed: *seed, Strict: *strict}
	start := time.Now()
	ran := 0
	emit := func(id string, table *exp.Table, t0 time.Time) {
		if *csvOut {
			fmt.Printf("# %s — %s\n", table.ID, table.Title)
			if err := table.CSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "csv: %v\n", err)
				os.Exit(1)
			}
			fmt.Println()
		} else {
			table.Markdown(os.Stdout)
		}
		fmt.Fprintf(os.Stderr, "%s done in %v\n", id, time.Since(t0).Round(time.Millisecond))
		ran++
	}
	for _, r := range runners {
		if len(want) > 0 && !want[r.id] {
			continue
		}
		t0 := time.Now()
		emit(r.id, r.f(cfg), t0)
	}
	// E12 runs once even when selected, exported as JSON and/or compared.
	if len(want) == 0 || want["E12"] || *rtJSON != "" || *baseline != "" || *mpBaseline != "" {
		t0 := time.Now()
		rep := exp.RuntimeThroughput(cfg)
		emit("E12", rep.Table(), t0)
		if *baseline != "" {
			f, err := os.Open(*baseline)
			if err != nil {
				fmt.Fprintf(os.Stderr, "baseline: %v\n", err)
				os.Exit(1)
			}
			base, err := exp.ReadRuntimeReport(f)
			f.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "baseline: %v\n", err)
				os.Exit(1)
			}
			if err := exp.CompareRuntime(rep, base, *maxRegress); err != nil {
				fmt.Fprintf(os.Stderr, "%v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "benchmark delta vs %s OK (tolerance -%.0f%%)\n", *baseline, *maxRegress*100)
		}
		if *mpBaseline != "" {
			f, err := os.Open(*mpBaseline)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mpbaseline: %v\n", err)
				os.Exit(1)
			}
			base, err := exp.ReadRuntimeReport(f)
			f.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "mpbaseline: %v\n", err)
				os.Exit(1)
			}
			if err := exp.CompareMultiWorker(rep, base, *mpMargin); err != nil {
				fmt.Fprintf(os.Stderr, "%v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "multi-worker gate vs %s OK (margin -%.0f%%)\n", *mpBaseline, *mpMargin*100)
		}
		writeReport(*rtJSON, "runtimejson", rep)
	}
	// E14 follows the E12 pattern: run once when selected, optionally
	// serialized, and gated under -strict (relabeling on must not lose to
	// the ablation on rr4 at the largest measured n).
	if len(want) == 0 || want["E14"] || *locJSON != "" {
		t0 := time.Now()
		rep := exp.LocalityAblation(cfg)
		emit("E14", rep.Table(), t0)
		if *strict {
			if err := exp.LocalityGate(rep); err != nil {
				fmt.Fprintf(os.Stderr, "%v\n", err)
				os.Exit(1)
			}
			fmt.Fprintln(os.Stderr, "locality gate OK (relabel-on >= relabel-off on rr4)")
		}
		writeReport(*locJSON, "localityjson", rep)
	}
	// E15 mirrors E14: run once when selected, optionally serialized, and
	// gated under -strict (full tracing must cost <= 10% throughput).
	if len(want) == 0 || want["E15"] || *ovhJSON != "" {
		t0 := time.Now()
		rep := exp.TracerOverhead(cfg)
		emit("E15", rep.Table(), t0)
		if *strict {
			if err := exp.OverheadGate(rep); err != nil {
				fmt.Fprintf(os.Stderr, "%v\n", err)
				os.Exit(1)
			}
			fmt.Fprintln(os.Stderr, "tracer overhead gate OK (full tracing <= 10% cost)")
		}
		writeReport(*ovhJSON, "overheadjson", rep)
	}
	// E16 mirrors E14/E15: run once when selected, optionally serialized,
	// and gated under -strict (incremental Recolor must beat the full
	// pipeline on rounds and wall time at the largest n, and at least one
	// fault plan must heal to a verified coloring).
	if len(want) == 0 || want["E16"] || *churnJSON != "" {
		t0 := time.Now()
		rep := exp.ChurnRecovery(cfg)
		emit("E16", rep.Table(), t0)
		if *strict {
			if err := exp.ChurnGate(rep); err != nil {
				fmt.Fprintf(os.Stderr, "%v\n", err)
				os.Exit(1)
			}
			fmt.Fprintln(os.Stderr, "churn gate OK (incremental recolor wins; faults heal)")
		}
		writeReport(*churnJSON, "churnjson", rep)
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiments matched -only=%q\n", *only)
		os.Exit(1)
	}
	if err := stopCPU(); err != nil {
		fmt.Fprintf(os.Stderr, "benchsuite: %v\n", err)
		os.Exit(1)
	}
	if err := obs.WriteHeapProfile(*memProfile); err != nil {
		fmt.Fprintf(os.Stderr, "benchsuite: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "suite done in %v\n", time.Since(start).Round(time.Millisecond))
}

// writeReport serializes an experiment report to path (a no-op when the
// flag was not given); any failure is fatal under the flag's name.
func writeReport(path, flagName string, rep interface{ WriteJSON(io.Writer) error }) {
	if path == "" {
		return
	}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", flagName, err)
		os.Exit(1)
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := rep.WriteJSON(f); err != nil {
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}
