// Command wallbench is the repository's wall-clock benchmark: time to
// verdict for one user-visible check in each mode a user runs
// (uninstrumented, single-run, multi-run, Velodrome, and the dcserve /check
// service), with every verdict compared against a reference. With -trace 1
// it instead runs the traced pass that breaks a check down by layer.
//
// Run it from the root of a checkout through run.sh, which builds it:
//
//	bash wallbench/run.sh --workload txn --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are a readable
// report. The command exits non-zero when any check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wallbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wlName  = fs.String("workload", "txn", "workload: txn, scc, local or serve")
		seed    = fs.Int64("seed", 1, "workload seed: every generated input derives from it")
		seconds = fs.Int("seconds", 30, "how long the measurement runs")
		traced  = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer breakdown")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloadByName(*wlName)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "wallbench: bad arguments (workload %q, seconds %d, trace %d)\n", *wlName, *seconds, *traced)
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	ctx := context.Background()

	var (
		res *result
		err error
	)
	if *traced == 1 {
		res, err = runTraced(ctx, wl, *seed, budget, stdout)
	} else {
		res, err = runEndToEnd(ctx, wl, *seed, budget, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "wallbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res.out())
	if err != nil {
		fmt.Fprintf(stderr, "wallbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct || res.failed > 0 {
		fmt.Fprintf(stderr, "wallbench: %d of %d checks failed\n", res.failed, res.attempted)
		for _, m := range res.failures {
			fmt.Fprintf(stderr, "  %s\n", m)
		}
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result accumulates one run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	failures  []string // first few failure descriptions, for stderr
	metrics   map[string]metric
	order     []string
}

func newResult() *result {
	return &result{correct: true, metrics: make(map[string]metric)}
}

// check counts one attempted check; a non-empty problem marks it failed.
func (r *result) check(problem string) {
	r.attempted++
	if problem == "" {
		return
	}
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, problem)
	}
}

// invalid marks the run incorrect without counting a check: a harness-level
// inconsistency such as a failed reconciliation.
func (r *result) invalid(problem string) {
	r.correct = false
	if len(r.failures) < 10 {
		r.failures = append(r.failures, problem)
	}
}

func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.invalid(fmt.Sprintf("metric %s was not measured", name))
		v = 0
	}
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) out() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct && r.failed == 0, r.attempted, r.failed, r.metrics}
}

// printMetrics writes every metric by name, with its unit, in report order.
func (r *result) printMetrics(w io.Writer) {
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "  %-24s %14.4f %s\n", name, m.Value, m.Unit)
	}
}
