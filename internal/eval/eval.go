package eval

import (
	"context"
	"fmt"
	"math"
	"sort"

	"doublechecker/internal/core"
	"doublechecker/internal/cost"
	"doublechecker/internal/spec"
	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
	"doublechecker/internal/workloads"
)

// Options tunes the evaluation. The zero value is filled with defaults by
// NewRunner.
type Options struct {
	// Scale is the workload scale factor (default 0.5).
	Scale float64
	// PerfTrials is the number of schedule seeds per performance point
	// (default 5; the paper uses 25 and takes the median, as we do).
	PerfTrials int
	// StatTrials is the number of trials averaged for Table 3 (default 3;
	// the paper uses 10).
	StatTrials int
	// RefineStable is the consecutive no-new-violation trial count that
	// ends iterative refinement (default 4; the paper uses 10).
	RefineStable int
	// FirstRuns is how many first runs feed the second run of multi-run
	// mode (default 10, as in the paper).
	FirstRuns int
	// Benchmarks restricts the suite (default: all).
	Benchmarks []string
	// MemoryBudget, when positive, models the paper's 32-bit heap limit
	// (§5.1): Figure 7 rows whose live analysis footprint exceeds it are
	// flagged OOM. Zero disables the check.
	MemoryBudget int64
	// CrosscheckBudget is the (workload, scheduler, seed) triple count of
	// the crosscheck experiment's sweep (default 120). The experiment is
	// fully deterministic at a fixed budget.
	CrosscheckBudget int
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 0.5
	}
	if o.PerfTrials == 0 {
		o.PerfTrials = 5
	}
	if o.StatTrials == 0 {
		o.StatTrials = 3
	}
	if o.RefineStable == 0 {
		o.RefineStable = 4
	}
	if o.FirstRuns == 0 {
		o.FirstRuns = 10
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = workloads.All()
	}
	if o.CrosscheckBudget == 0 {
		o.CrosscheckBudget = 120
	}
	return o
}

// refineKind names the three refinement configurations of §5.2.
type refineKind int

const (
	refineVelo refineKind = iota
	refineSingle
	refineMulti
)

// Runner caches built workloads and refinement results across experiments.
type Runner struct {
	opts    Options
	built   map[string]*workloads.Built
	initial map[string]*spec.Spec
	refined map[string]map[refineKind]*spec.Result
	finals  map[string]*spec.Spec
	filters map[string]*txn.Filter
}

// NewRunner returns a Runner with the given options.
func NewRunner(opts Options) *Runner {
	return &Runner{
		opts:    opts.withDefaults(),
		built:   make(map[string]*workloads.Built),
		initial: make(map[string]*spec.Spec),
		refined: make(map[string]map[refineKind]*spec.Result),
		finals:  make(map[string]*spec.Spec),
		filters: make(map[string]*txn.Filter),
	}
}

// bench returns the cached Built and paper-style initial specification.
func (r *Runner) bench(name string) (*workloads.Built, *spec.Spec, error) {
	if b, ok := r.built[name]; ok {
		return b, r.initial[name], nil
	}
	b, err := workloads.Build(name, r.opts.Scale)
	if err != nil {
		return nil, nil, err
	}
	s := spec.Initial(b.Prog)
	if err := s.ExcludeByName(b.InitialExclusions...); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	r.built[name] = b
	r.initial[name] = s
	return b, s, nil
}

// run executes one configuration of one benchmark.
func (r *Runner) run(name string, analysis core.Analysis, sp *spec.Spec, seed int64, meter *cost.Meter, mut func(*core.Config)) (*core.Result, error) {
	b, _, err := r.bench(name)
	if err != nil {
		return nil, err
	}
	res, err := core.Run(b.Prog, config(b, analysis, sp, seed, meter, mut))
	if err != nil {
		return nil, runErr(name, analysis, seed, err)
	}
	return res, nil
}

// config builds one run's configuration of benchmark b.
func config(b *workloads.Built, analysis core.Analysis, sp *spec.Spec, seed int64, meter *cost.Meter, mut func(*core.Config)) core.Config {
	cfg := core.Config{
		Analysis: analysis,
		Sched:    vm.NewSticky(seed, b.Stickiness),
		Atomic:   sp.Atomic,
		Meter:    meter,
	}
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

// runErr names the failed run in its error.
func runErr(name string, analysis core.Analysis, seed int64, err error) error {
	return fmt.Errorf("%s/%v seed %d: %w", name, analysis, seed, err)
}

// firstRuns executes FirstRuns unmetered first runs of one benchmark under
// sp, run i on schedule seed seedBase+i, as one concurrent ensemble
// (core.RunEnsemble). It fails on the first error in index order.
func (r *Runner) firstRuns(name string, sp *spec.Spec, seedBase int64) ([]*core.Result, error) {
	b, _, err := r.bench(name)
	if err != nil {
		return nil, err
	}
	cfgs := make([]core.Config, r.opts.FirstRuns)
	for i := range cfgs {
		cfgs[i] = config(b, core.DCFirst, sp, seedBase+int64(i), nil, nil)
	}
	results, errs := core.RunEnsemble(context.Background(), b.Prog, cfgs)
	for i, err := range errs {
		if err != nil {
			return nil, runErr(name, core.DCFirst, seedBase+int64(i), err)
		}
	}
	return results, nil
}

// refineFor runs (and caches) iterative refinement under one checker kind.
func (r *Runner) refineFor(name string, kind refineKind) (*spec.Result, error) {
	if m, ok := r.refined[name]; ok {
		if res, ok := m[kind]; ok {
			return res, nil
		}
	} else {
		r.refined[name] = make(map[refineKind]*spec.Result)
	}
	_, initial, err := r.bench(name)
	if err != nil {
		return nil, err
	}
	check := func(sp *spec.Spec, trial int) ([]vm.MethodID, error) {
		var res *core.Result
		var err error
		switch kind {
		case refineVelo:
			res, err = r.run(name, core.Velodrome, sp, int64(trial), nil, nil)
		case refineSingle:
			res, err = r.run(name, core.DCSingle, sp, int64(trial), nil, nil)
		case refineMulti:
			res, err = r.multiRun(name, sp, int64(trial))
		}
		if err != nil {
			return nil, err
		}
		var blamed []vm.MethodID
		for m := range res.BlamedMethods {
			blamed = append(blamed, m)
		}
		sort.Slice(blamed, func(i, j int) bool { return blamed[i] < blamed[j] })
		return blamed, nil
	}
	res, err := spec.Refine(initial, check, spec.Options{StableTrials: r.opts.RefineStable})
	if err != nil {
		return nil, fmt.Errorf("%s refinement: %w", name, err)
	}
	r.refined[name][kind] = res
	return res, nil
}

// multiRun executes the full multi-run pipeline for one logical trial:
// FirstRuns first runs with derived seeds, union, one second run.
func (r *Runner) multiRun(name string, sp *spec.Spec, trial int64) (*core.Result, error) {
	firsts, err := r.firstRuns(name, sp, trial*1000)
	if err != nil {
		return nil, err
	}
	filter := core.UnionFilter(firsts)
	return r.run(name, core.DCSecond, sp, trial, nil, func(c *core.Config) { c.Filter = filter })
}

// FinalSpec derives (and caches) the benchmark's final specification: the
// intersection of the Velodrome- and single-run-refined specifications
// (§5.1, "to avoid any bias toward one approach").
func (r *Runner) FinalSpec(name string) (*spec.Spec, error) {
	if s, ok := r.finals[name]; ok {
		return s, nil
	}
	velo, err := r.refineFor(name, refineVelo)
	if err != nil {
		return nil, err
	}
	single, err := r.refineFor(name, refineSingle)
	if err != nil {
		return nil, err
	}
	final := velo.Final.Intersect(single.Final)
	r.finals[name] = final
	return final, nil
}

// secondRunFilter derives (and caches) the static transaction information
// feeding the second run under the final specification.
func (r *Runner) secondRunFilter(name string) (*txn.Filter, error) {
	if f, ok := r.filters[name]; ok {
		return f, nil
	}
	final, err := r.FinalSpec(name)
	if err != nil {
		return nil, err
	}
	firsts, err := r.firstRuns(name, final, 9000)
	if err != nil {
		return nil, err
	}
	f := core.UnionFilter(firsts)
	r.filters[name] = f
	return f, nil
}

// ---------------------------------------------------------------------------
// Table 2.

// Table2Row is one benchmark's violation counts.
type Table2Row struct {
	Name       string
	Velo       int
	VeloUnique int
	Single     int
	Multi      int
	MultiUniq  int
	Paper      PaperTable2
}

// Table2Data is experiment E2.
type Table2Data struct {
	Rows []Table2Row
	// DetectOverall is multi-run's share of all single-run violations
	// (paper: 83%); DetectNormalized averages per-benchmark rates over
	// benchmarks with at least one single-run violation (paper: 90%).
	DetectOverall    float64
	DetectNormalized float64
}

// Table2 regenerates Table 2: iterative refinement to completion under
// Velodrome, single-run mode, and multi-run mode; every method blamed along
// the way counts as a violation.
func (r *Runner) Table2() (*Table2Data, error) {
	data := &Table2Data{}
	totalSingle, totalMultiHit := 0, 0
	var rates []float64
	for _, name := range r.opts.Benchmarks {
		velo, err := r.refineFor(name, refineVelo)
		if err != nil {
			return nil, err
		}
		single, err := r.refineFor(name, refineSingle)
		if err != nil {
			return nil, err
		}
		multi, err := r.refineFor(name, refineMulti)
		if err != nil {
			return nil, err
		}
		row := Table2Row{
			Name:   name,
			Velo:   len(velo.Blamed),
			Single: len(single.Blamed),
			Multi:  len(multi.Blamed),
			Paper:  paperTable2[name],
		}
		for m := range velo.Blamed {
			if !single.Blamed[m] {
				row.VeloUnique++
			}
		}
		hits := 0
		for m := range multi.Blamed {
			if !single.Blamed[m] {
				row.MultiUniq++
			} else {
				hits++
			}
		}
		totalSingle += row.Single
		totalMultiHit += hits
		if row.Single > 0 {
			rates = append(rates, float64(hits)/float64(row.Single))
		}
		data.Rows = append(data.Rows, row)
	}
	if totalSingle > 0 {
		data.DetectOverall = float64(totalMultiHit) / float64(totalSingle)
	}
	if len(rates) > 0 {
		sum := 0.0
		for _, x := range rates {
			sum += x
		}
		data.DetectNormalized = sum / float64(len(rates))
	}
	return data, nil
}

// ---------------------------------------------------------------------------
// Figure 7.

// Fig7Config identifies one bar group of Figure 7 (plus the §5.3 extras).
type Fig7Config struct {
	Label    string
	Analysis core.Analysis
	// Filtered marks configurations needing the second-run filter.
	Filtered bool
	// ForceUnary makes the second run instrument all non-transactional
	// accesses regardless of the filter boolean (§5.3's 169% variant).
	ForceUnary bool
}

// Fig7Configs returns the measured configurations in display order.
func Fig7Configs() []Fig7Config {
	return []Fig7Config{
		{Label: "Velodrome", Analysis: core.Velodrome},
		{Label: "Velodrome-unsound", Analysis: core.VelodromeUnsound},
		{Label: "Single-run (ICD+PCD)", Analysis: core.DCSingle},
		{Label: "First run (ICD w/o logging)", Analysis: core.DCFirst},
		{Label: "Second run (ICD+PCD)", Analysis: core.DCSecond, Filtered: true},
		{Label: "Second run (Velodrome)", Analysis: core.VeloSecond, Filtered: true},
		{Label: "Second run (all unary)", Analysis: core.DCSecond, Filtered: true, ForceUnary: true},
	}
}

// Fig7Row is one benchmark's normalized execution times.
type Fig7Row struct {
	Name       string
	Normalized []float64 // indexed like Fig7Configs
	GCFraction []float64
	OOM        []bool // exceeded Options.MemoryBudget (when set)
}

// Fig7Data is experiment E3.
type Fig7Data struct {
	Configs []Fig7Config
	Rows    []Fig7Row
	Geomean []float64
	GeoGC   []float64
}

// paperFig7Geomean returns the paper's geomean for each config label.
func paperFig7Geomean(label string) float64 {
	switch label {
	case "Velodrome":
		return PaperVelodrome
	case "Velodrome-unsound":
		return PaperVelodromeUnsnd
	case "Single-run (ICD+PCD)":
		return PaperSingleRun
	case "First run (ICD w/o logging)":
		return PaperFirstRun
	case "Second run (ICD+PCD)":
		return PaperSecondRun
	case "Second run (Velodrome)":
		return PaperVeloSecondRun
	case "Second run (all unary)":
		return PaperSecondAllUnary
	}
	return 0
}

// Figure7 regenerates Figure 7: normalized execution time (median over
// PerfTrials paired seeds) for every configuration over the compute-bound
// benchmarks, with modelled-GC sub-bars.
func (r *Runner) Figure7() (*Fig7Data, error) {
	configs := Fig7Configs()
	data := &Fig7Data{Configs: configs}
	for _, name := range r.opts.Benchmarks {
		b, _, err := r.bench(name)
		if err != nil {
			return nil, err
		}
		if !b.ComputeBound {
			continue // the paper excludes elevator, hedc and philo
		}
		final, err := r.FinalSpec(name)
		if err != nil {
			return nil, err
		}
		row := Fig7Row{Name: name}
		for _, cfgDesc := range configs {
			var norms, gcs []float64
			oom := false
			for trial := 0; trial < r.opts.PerfTrials; trial++ {
				seed := int64(100 + trial)
				baseMeter := cost.NewMeter(cost.Default())
				if _, err := r.run(name, core.Baseline, final, seed, baseMeter, nil); err != nil {
					return nil, err
				}
				meter := cost.NewMeter(cost.Default())
				if r.opts.MemoryBudget > 0 {
					meter.SetBudget(r.opts.MemoryBudget)
				}
				mut := func(c *core.Config) {}
				if cfgDesc.Filtered {
					filter, err := r.secondRunFilter(name)
					if err != nil {
						return nil, err
					}
					if cfgDesc.ForceUnary {
						f2 := &txn.Filter{Methods: filter.Methods, Unary: true}
						mut = func(c *core.Config) { c.Filter = f2 }
					} else {
						mut = func(c *core.Config) { c.Filter = filter }
					}
				}
				res, err := r.run(name, cfgDesc.Analysis, final, seed, meter, mut)
				if err != nil {
					return nil, err
				}
				norms = append(norms, res.Cost.Normalized(baseMeter.Total()))
				gcs = append(gcs, res.Cost.GCFraction())
				oom = oom || res.Cost.OOM
			}
			row.Normalized = append(row.Normalized, median(norms))
			row.GCFraction = append(row.GCFraction, median(gcs))
			row.OOM = append(row.OOM, oom)
		}
		data.Rows = append(data.Rows, row)
	}
	for i := range configs {
		var ns, gs []float64
		for _, row := range data.Rows {
			ns = append(ns, row.Normalized[i])
			gs = append(gs, row.GCFraction[i])
		}
		data.Geomean = append(data.Geomean, geomean(ns))
		data.GeoGC = append(data.GeoGC, mean(gs))
	}
	return data, nil
}

// ---------------------------------------------------------------------------
// Table 3.

// Table3Row is one benchmark's run-time characteristics, averaged over
// StatTrials, for single-run mode and the second run of multi-run mode.
type Table3Row struct {
	Name        string
	Single      Table3Stats
	Second      Table3Stats
	Paper       PaperTable3
	PaperSecond PaperTable3
}

// Table3Stats mirrors the table's columns.
type Table3Stats struct {
	RegularTx       float64
	RegularAccesses float64
	NonTransAcc     float64
	IDGEdges        float64
	SCCs            float64
}

// Table3Data is experiment E4.
type Table3Data struct {
	Rows []Table3Row
}

// Table3 regenerates Table 3 under the final specifications.
func (r *Runner) Table3() (*Table3Data, error) {
	data := &Table3Data{}
	for _, name := range r.opts.Benchmarks {
		final, err := r.FinalSpec(name)
		if err != nil {
			return nil, err
		}
		filter, err := r.secondRunFilter(name)
		if err != nil {
			return nil, err
		}
		row := Table3Row{Name: name, Paper: paperTable3[name], PaperSecond: paperTable3Second[name]}
		for trial := 0; trial < r.opts.StatTrials; trial++ {
			seed := int64(500 + trial)
			single, err := r.run(name, core.DCSingle, final, seed, nil, nil)
			if err != nil {
				return nil, err
			}
			accumulate(&row.Single, single)
			second, err := r.run(name, core.DCSecond, final, seed, nil,
				func(c *core.Config) { c.Filter = filter })
			if err != nil {
				return nil, err
			}
			accumulate(&row.Second, second)
		}
		divide(&row.Single, float64(r.opts.StatTrials))
		divide(&row.Second, float64(r.opts.StatTrials))
		data.Rows = append(data.Rows, row)
	}
	return data, nil
}

func accumulate(s *Table3Stats, res *core.Result) {
	s.RegularTx += float64(res.ICD.RegularTx)
	s.RegularAccesses += float64(res.ICD.RegularAccesses)
	s.NonTransAcc += float64(res.ICD.UnaryAccesses)
	s.IDGEdges += float64(res.ICD.IDGEdges)
	s.SCCs += float64(res.ICD.SCCs)
}

func divide(s *Table3Stats, n float64) {
	s.RegularTx /= n
	s.RegularAccesses /= n
	s.NonTransAcc /= n
	s.IDGEdges /= n
	s.SCCs /= n
}

// ---------------------------------------------------------------------------
// §5.4 experiments.

// RefineStagesData is experiment E6: single-run overhead at three
// specification refinement stages.
type RefineStagesData struct {
	Initial, Halfway, Final float64 // geomean normalized times
}

// RefinementStages measures single-run mode at the strictest, halfway, and
// final specifications (§5.4).
func (r *Runner) RefinementStages() (*RefineStagesData, error) {
	var inits, halves, finals []float64
	for _, name := range r.opts.Benchmarks {
		b, initial, err := r.bench(name)
		if err != nil {
			return nil, err
		}
		if !b.ComputeBound {
			continue
		}
		res, err := r.refineFor(name, refineSingle)
		if err != nil {
			return nil, err
		}
		half := res.HalfwaySpec(initial)
		final, err := r.FinalSpec(name)
		if err != nil {
			return nil, err
		}
		for stage, sp := range map[*[]float64]*spec.Spec{&inits: initial, &halves: half, &finals: final} {
			n, err := r.normalizedSingle(name, sp)
			if err != nil {
				return nil, err
			}
			*stage = append(*stage, n)
		}
	}
	return &RefineStagesData{
		Initial: geomean(inits), Halfway: geomean(halves), Final: geomean(finals),
	}, nil
}

func (r *Runner) normalizedSingle(name string, sp *spec.Spec) (float64, error) {
	var ns []float64
	for trial := 0; trial < r.opts.PerfTrials; trial++ {
		seed := int64(300 + trial)
		base := cost.NewMeter(cost.Default())
		if _, err := r.run(name, core.Baseline, sp, seed, base, nil); err != nil {
			return 0, err
		}
		meter := cost.NewMeter(cost.Default())
		res, err := r.run(name, core.DCSingle, sp, seed, meter, nil)
		if err != nil {
			return 0, err
		}
		ns = append(ns, res.Cost.Normalized(base.Total()))
	}
	return median(ns), nil
}

// ArraysData is experiment E7: overhead with and without array element
// instrumentation (conflated metadata, cycle detection off, xalan6/9
// excluded — exactly the paper's setup).
type ArraysData struct {
	SingleBase, SingleWith float64
	VeloBase, VeloWith     float64
}

// Arrays runs the §5.4 array-instrumentation experiment.
func (r *Runner) Arrays() (*ArraysData, error) {
	excluded := map[string]bool{"xalan6": true, "xalan9": true}
	var sb, sw, vb, vw []float64
	for _, name := range r.opts.Benchmarks {
		b, _, err := r.bench(name)
		if err != nil {
			return nil, err
		}
		if !b.ComputeBound || excluded[name] {
			continue
		}
		final, err := r.FinalSpec(name)
		if err != nil {
			return nil, err
		}
		measure := func(analysis core.Analysis, arrays bool) (float64, error) {
			var ns []float64
			for trial := 0; trial < r.opts.PerfTrials; trial++ {
				seed := int64(400 + trial)
				base := cost.NewMeter(cost.Default())
				if _, err := r.run(name, core.Baseline, final, seed, base, nil); err != nil {
					return 0, err
				}
				meter := cost.NewMeter(cost.Default())
				_, err := r.run(name, analysis, final, seed, meter, func(c *core.Config) {
					c.InstrumentArrays = arrays
					c.DisableCycleDetection = true
				})
				if err != nil {
					return 0, err
				}
				ns = append(ns, meter.Report().Normalized(base.Total()))
			}
			return median(ns), nil
		}
		for _, m := range []struct {
			dst      *[]float64
			analysis core.Analysis
			arrays   bool
		}{
			{&sb, core.DCSingle, false},
			{&sw, core.DCSingle, true},
			{&vb, core.Velodrome, false},
			{&vw, core.Velodrome, true},
		} {
			n, err := measure(m.analysis, m.arrays)
			if err != nil {
				return nil, err
			}
			*m.dst = append(*m.dst, n)
		}
	}
	return &ArraysData{
		SingleBase: geomean(sb), SingleWith: geomean(sw),
		VeloBase: geomean(vb), VeloWith: geomean(vw),
	}, nil
}

// PCDOnlyData is experiment E8: the straw man where PCD processes every
// transaction. PCDOnlyShort is the same measurement at a quarter of the
// run length: the gap between the two shows the straw man's overhead
// growing with run length (retained logs make GC work superlinear), which
// is what drives the paper's 16.6x and its out-of-memory failures on the
// four biggest benchmarks.
type PCDOnlyData struct {
	SingleBase, PCDOnly, PCDOnlyShort float64
}

// pcdOnlyScaleBoost inflates the workloads for the PCD-only experiment.
// The straw man's dominant cost — it collects nothing, so GC work grows
// with the retained-log footprint — is superlinear in run length; at the
// harness's ordinary heavily-scaled-down sizes it barely registers, exactly
// as a short JVM run would not show it either. Running this one experiment
// at a larger scale exposes the growth the paper reports. The final
// specifications derived at the ordinary scale transfer directly: the
// generators scale only dynamic counts, never the method set.
const pcdOnlyScaleBoost = 16

// PCDOnly runs the §5.4 PCD-only experiment (excluding the four benchmarks
// the paper excludes because the straw man exhausts memory on them).
func (r *Runner) PCDOnly() (*PCDOnlyData, error) {
	excluded := map[string]bool{"eclipse6": true, "xalan6": true, "avrora9": true, "xalan9": true}
	var base, straw, short []float64
	for _, name := range r.opts.Benchmarks {
		b, _, err := r.bench(name)
		if err != nil {
			return nil, err
		}
		if !b.ComputeBound || excluded[name] {
			continue
		}
		final, err := r.FinalSpec(name)
		if err != nil {
			return nil, err
		}
		// Rebuild at the inflated scale; the spec transfers by method
		// identity.
		big, err := workloads.Build(name, r.opts.Scale*pcdOnlyScaleBoost)
		if err != nil {
			return nil, err
		}
		small, err := workloads.Build(name, r.opts.Scale*pcdOnlyScaleBoost/4)
		if err != nil {
			return nil, err
		}
		measureOn := func(w *workloads.Built, analysis core.Analysis) (float64, error) {
			var ns []float64
			for trial := 0; trial < r.opts.PerfTrials; trial++ {
				seed := int64(300 + trial)
				bm := cost.NewMeter(cost.Default())
				if _, err := core.Run(w.Prog, core.Config{
					Analysis: core.Baseline, Sched: vm.NewSticky(seed, w.Stickiness),
					Atomic: final.Atomic, Meter: bm,
				}); err != nil {
					return 0, err
				}
				meter := cost.NewMeter(cost.Default())
				if _, err := core.Run(w.Prog, core.Config{
					Analysis: analysis, Sched: vm.NewSticky(seed, w.Stickiness),
					Atomic: final.Atomic, Meter: meter,
				}); err != nil {
					return 0, err
				}
				ns = append(ns, meter.Report().Normalized(bm.Total()))
			}
			return median(ns), nil
		}
		nb, err := measureOn(big, core.DCSingle)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		base = append(base, nb)
		ns, err := measureOn(big, core.PCDOnly)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		straw = append(straw, ns)
		nshort, err := measureOn(small, core.PCDOnly)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		short = append(short, nshort)
	}
	return &PCDOnlyData{
		SingleBase: geomean(base), PCDOnly: geomean(straw), PCDOnlyShort: geomean(short),
	}, nil
}

// ---------------------------------------------------------------------------
// small statistics helpers

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			x = 1e-9
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}
