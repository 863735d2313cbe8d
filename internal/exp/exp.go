// Package exp is the experiment harness: one runner per experiment
// (E1–E16: the paper's claims, plus the runtime, repair-tail, locality,
// tracing-overhead and churn measurements), each producing a Table whose
// rows cmd/benchsuite prints. bench_test.go wraps the same runners in testing.B benchmarks so
// `go test -bench=.` regenerates every table.
package exp

import (
	"deltacolor/local"

	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"
)

// Config scales the experiments. The zero value selects the full-scale
// parameters; Quick shrinks every sweep to smoke-test size
// (used by -short tests and the benchmark harness's inner loop). Strict
// turns every late dead send — a message staged for a neighbor the sender
// could already have known was halted (local.LateDeadSends) — into a
// panic via local.SetStrictDeadSends, so dead-send protocol regressions
// fail the harness — and CI — instead of surfacing in user runs.
type Config struct {
	Quick  bool
	Seed   int64
	Strict bool
}

// install applies the config's process-wide settings. Every experiment
// runner calls it first, so a runner invoked directly (tests, benchsuite
// -only) still honors -strict.
func (c Config) install() {
	local.SetStrictDeadSends(c.Strict)
}

// Table is one experiment's output: a titled grid of rows plus free-form
// notes (bound checks, fits, pass/fail summaries).
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a formatted note.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// CSV renders the table in RFC 4180 CSV (header row first, notes
// omitted), for spreadsheet/plotting pipelines.
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "|%s|\n", strings.Join(seps, "|"))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n> %s\n", n)
	}
	fmt.Fprintln(w)
}

// itoa and f2/f4 are tiny formatting helpers for table cells.
func itoa(x int) string      { return fmt.Sprintf("%d", x) }
func f2(x float64) string    { return fmt.Sprintf("%.2f", x) }
func f4(x float64) string    { return fmt.Sprintf("%.4f", x) }
func pow2(e int) string      { return fmt.Sprintf("2^%d", e) }
func loglog(n int) float64   { return math.Log2(math.Max(2, math.Log2(float64(n)))) }
func log2f(n int) float64    { return math.Log2(float64(n)) }
func ratio(a, b int) float64 { return float64(a) / math.Max(1, float64(b)) }

// fitSlope estimates the least-squares slope of y against x (both already
// transformed by the caller, e.g. log-log). Used to report empirical growth
// exponents next to the theorems' predictions.
func fitSlope(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
