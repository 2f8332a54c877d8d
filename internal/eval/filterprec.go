package eval

import (
	"fmt"
	"strings"

	"doublechecker/internal/core"
	"doublechecker/internal/cost"
)

// FilterPrecisionRow is one support threshold of the first-run -> second-run
// communication study.
type FilterPrecisionRow struct {
	Benchmark      string
	MinSupport     int
	MethodsChosen  int
	Normalized     float64 // second run, median over trials
	ViolationsSeen int     // distinct blamed methods across trials
}

// FilterPrecisionData implements the paper's closing future-work suggestion
// for multi-run mode: "devise an effective way for the first run to more
// precisely communicate potentially imprecise cycles to the second run"
// (§5.3). The first runs here report, per method, how many imprecise SCCs
// its transactions joined; the second run instruments only methods whose
// summed support reaches a threshold. Support 1 is the paper's behavior;
// higher thresholds shrink the instrumented set (cheaper second run) at the
// risk of losing rarely-cycling methods.
type FilterPrecisionData struct {
	Rows []FilterPrecisionRow
}

// FilterPrecision sweeps the support threshold.
func (r *Runner) FilterPrecision() (*FilterPrecisionData, error) {
	data := &FilterPrecisionData{}
	for _, name := range r.opts.Benchmarks {
		b, _, err := r.bench(name)
		if err != nil {
			return nil, err
		}
		if !b.ComputeBound {
			continue
		}
		final, err := r.FinalSpec(name)
		if err != nil {
			return nil, err
		}
		// Paper-style first runs under the benchmark's *initial* spec so
		// that violations still exist for the second run to find.
		_, initial, err := r.bench(name)
		if err != nil {
			return nil, err
		}
		firsts, err := r.firstRuns(name, initial, 9100)
		if err != nil {
			return nil, err
		}
		_ = final
		for _, support := range []int{1, 2, 4, 8} {
			filter := core.UnionFilterMinSupport(firsts, support)
			row := FilterPrecisionRow{
				Benchmark:     name,
				MinSupport:    support,
				MethodsChosen: len(filter.Methods),
			}
			blamed := map[string]bool{}
			var norms []float64
			for trial := 0; trial < r.opts.PerfTrials; trial++ {
				seed := int64(800 + trial)
				base := cost.NewMeter(cost.Default())
				if _, err := r.run(name, core.Baseline, initial, seed, base, nil); err != nil {
					return nil, err
				}
				meter := cost.NewMeter(cost.Default())
				res, err := r.run(name, core.DCSecond, initial, seed, meter,
					func(c *core.Config) { c.Filter = filter })
				if err != nil {
					return nil, err
				}
				norms = append(norms, res.Cost.Normalized(base.Total()))
				for _, n := range res.BlamedMethodNames(b.Prog) {
					blamed[n] = true
				}
			}
			row.Normalized = median(norms)
			row.ViolationsSeen = len(blamed)
			data.Rows = append(data.Rows, row)
		}
	}
	return data, nil
}

// RenderFilterPrecision renders the study.
func (d *FilterPrecisionData) RenderFilterPrecision() string {
	var b strings.Builder
	b.WriteString("First-run -> second-run communication precision (§5.3 future work)\n")
	b.WriteString("second run instruments only methods whose SCC support across first runs\n")
	b.WriteString("reaches the threshold; support 1 is the paper's behavior\n\n")
	fmt.Fprintf(&b, "%-12s %10s %10s %12s %12s\n",
		"benchmark", "support", "methods", "norm time", "blamed")
	b.WriteString(strings.Repeat("-", 62) + "\n")
	prev := ""
	for _, r := range d.Rows {
		name := r.Benchmark
		if name == prev {
			name = ""
		}
		prev = r.Benchmark
		fmt.Fprintf(&b, "%-12s %10d %10d %11.2fx %12d\n",
			name, r.MinSupport, r.MethodsChosen, r.Normalized, r.ViolationsSeen)
	}
	return b.String()
}
