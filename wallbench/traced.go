package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"doublechecker/internal/core"
	"doublechecker/internal/cost"
	"doublechecker/internal/icd"
	"doublechecker/internal/octet"
	"doublechecker/internal/pcd"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
)

const (
	// tracedPairs is how many (program, seed) pairs per program the traced
	// run checks; the layer counts cover exactly these pairs, so they are a
	// function of the seed alone.
	tracedPairs = 6
	// tracedMultiPairs of them also run the multi-run pipeline.
	tracedMultiPairs = 2
	// reconcileTolerance bounds |sum of layer self times - whole traced
	// check| as a share of the whole.
	reconcileTolerance = 0.15
)

// config is one configuration of a traced check. Every configuration is a
// core.RunContext run; the differential ones isolate layers that have no
// public boundary between them.
type config int

const (
	cfgBare      config = iota // Baseline, callbacks not timed: the VM alone
	cfgBaseline                // Baseline, callbacks timed: the VM plus the timers
	cfgOctet                   // Baseline wrapped in Octet barriers (octet.Engine, nil hooks)
	cfgICD                     // DCFirst without cycle detection: ICD, no logging, no SCCs
	cfgICDSCC                  // DCFirst: ICD, no logging, SCC detection on (a first run)
	cfgLog                     // DCSingle without cycle detection: ICD with logging
	cfgSingle                  // DCSingle: the single-run check
	cfgVelodrome               // Velodrome
	numConfigs
)

var configNames = [numConfigs]string{"bare", "baseline", "octet-only", "icd", "icd+scc", "icd+log", "single", "velodrome"}

// coreConfig is the core configuration cfg runs under.
func (cfg config) coreConfig() core.Config {
	switch cfg {
	case cfgICD:
		return core.Config{Analysis: core.DCFirst, DisableCycleDetection: true}
	case cfgICDSCC:
		return core.Config{Analysis: core.DCFirst}
	case cfgLog:
		return core.Config{Analysis: core.DCSingle, DisableCycleDetection: true}
	case cfgSingle:
		return core.Config{Analysis: core.DCSingle}
	case cfgVelodrome:
		return core.Config{Analysis: core.Velodrome}
	}
	return core.Config{Analysis: core.Baseline}
}

// timedInst forwards every instrumentation callback to inner and adds the
// time spent inside it to busy: the vm.Instrumentation layer boundary. It
// is installed through core.Config.WrapInst.
type timedInst struct {
	inner vm.Instrumentation
	busy  time.Duration
}

func (t *timedInst) ProgramStart(e vm.ExecView) {
	s := time.Now()
	t.inner.ProgramStart(e)
	t.busy += time.Since(s)
}

func (t *timedInst) ThreadStart(th vm.ThreadID) {
	s := time.Now()
	t.inner.ThreadStart(th)
	t.busy += time.Since(s)
}

func (t *timedInst) ThreadExit(th vm.ThreadID) {
	s := time.Now()
	t.inner.ThreadExit(th)
	t.busy += time.Since(s)
}

func (t *timedInst) TxBegin(th vm.ThreadID, m vm.MethodID) {
	s := time.Now()
	t.inner.TxBegin(th, m)
	t.busy += time.Since(s)
}

func (t *timedInst) TxEnd(th vm.ThreadID, m vm.MethodID) {
	s := time.Now()
	t.inner.TxEnd(th, m)
	t.busy += time.Since(s)
}

func (t *timedInst) Access(a vm.Access) {
	s := time.Now()
	t.inner.Access(a)
	t.busy += time.Since(s)
}

func (t *timedInst) ProgramEnd() {
	s := time.Now()
	t.inner.ProgramEnd()
	t.busy += time.Since(s)
}

// octetOnly runs the Octet barrier ICD runs on each instrumented access,
// with no ICD hooks behind it, then forwards the event to inner (the
// Baseline analysis' no-op instrumentation).
type octetOnly struct {
	inner vm.Instrumentation
	meter *cost.Meter
	eng   *octet.Engine
}

func (o *octetOnly) ProgramStart(e vm.ExecView) {
	o.eng = octet.New(nil, e.Blocked, o.meter)
	o.inner.ProgramStart(e)
}

func (o *octetOnly) ThreadStart(t vm.ThreadID) {
	o.eng.ThreadStart(t)
	o.inner.ThreadStart(t)
}

func (o *octetOnly) ThreadExit(t vm.ThreadID) {
	o.eng.ThreadExit(t)
	o.inner.ThreadExit(t)
}

func (o *octetOnly) TxBegin(t vm.ThreadID, m vm.MethodID) { o.inner.TxBegin(t, m) }
func (o *octetOnly) TxEnd(t vm.ThreadID, m vm.MethodID)   { o.inner.TxEnd(t, m) }
func (o *octetOnly) ProgramEnd()                          { o.inner.ProgramEnd() }

func (o *octetOnly) Access(a vm.Access) {
	// ICD's default configuration leaves arrays uninstrumented.
	if a.Class != vm.ClassArray {
		if a.Write {
			o.eng.BeforeWrite(a.Thread, a.Obj)
		} else {
			o.eng.BeforeRead(a.Thread, a.Obj)
		}
	}
	o.inner.Access(a)
}

// layerRun is one traced check under one configuration.
type layerRun struct {
	wall    time.Duration // core.RunContext plus report rendering
	exec    time.Duration // core's execute span: Exec.Run
	cb      time.Duration // inside instrumentation callbacks
	pcd     time.Duration // core's pcd.replay spans, nested in cb
	report  time.Duration // core.ViolationSummary
	allocKB float64

	res    *core.Result
	octet  octet.Stats // the Octet barrier's transitions
	blamed []string

	units, pcdUnits cost.Units // with a meter attached
}

// runConfig runs one check of s under seed and cfg through core.RunContext,
// the instrumentation callbacks timed through WrapInst (except in the bare
// configuration). withMeter attaches a cost meter.
func runConfig(ctx context.Context, s *subject, seed int64, cfg config, withMeter bool) (*layerRun, error) {
	prog := s.built.Prog
	c := cfg.coreConfig()
	c.Sched, c.Atomic = s.sched(seed), s.spec.Atomic
	if withMeter {
		c.Meter = cost.NewMeter(cost.Default())
	}
	ti := &timedInst{}
	var oo *octetOnly
	if cfg != cfgBare {
		c.WrapInst = func(inner vm.Instrumentation) vm.Instrumentation {
			if cfg == cfgOctet {
				oo = &octetOnly{inner: inner, meter: c.Meter}
				inner = oo
			}
			ti.inner = inner
			return ti
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	r, err := core.RunContext(ctx, prog, c)
	t1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d %s: %w", s.name, seed, configNames[cfg], err)
	}
	_ = core.ViolationSummary(prog, r)
	t2 := time.Now()
	runtime.ReadMemStats(&m1)

	spans := r.Telemetry.Spans
	lr := &layerRun{
		wall:    t2.Sub(t0),
		exec:    time.Duration(spans[telemetry.SpanExecute].WallNanos),
		cb:      ti.busy,
		pcd:     time.Duration(spans[telemetry.SpanPCDReplay].WallNanos),
		report:  t2.Sub(t1),
		allocKB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1024,
		res:     r,
		octet:   octetStats(r.Telemetry),
		blamed:  r.BlamedMethodNames(prog),
	}
	if oo != nil {
		lr.octet = oo.eng.Stats()
	}
	if withMeter {
		lr.units, lr.pcdUnits = c.Meter.Total(), cost.Units(spans[telemetry.SpanPCDReplay].CostUnits)
	}
	return lr, nil
}

// octetStats reads the Octet transition mix from a run's telemetry.
func octetStats(s *telemetry.Snapshot) octet.Stats {
	return octet.Stats{
		FastPath:    s.Counter(telemetry.OctetFastPath),
		Initial:     s.Counter(telemetry.OctetInitial),
		Upgrading:   s.Counter(telemetry.OctetUpgrading),
		Fences:      s.Counter(telemetry.OctetFence),
		Conflicting: s.Counter(telemetry.OctetConflicting),
	}
}

// usefulSCCs counts, for one single-run check of s under seed, the SCCs
// whose PCD replay found a precise cycle, and the SCCs replayed. pcd.Stats
// counts cycles, not SCCs with one, and core keeps ICD's SCC hand-off to
// itself, so this is the one place the benchmark assembles ICD and PCD; the
// caller checks that it replays as many SCCs as core's run of the same
// check.
func usefulSCCs(ctx context.Context, s *subject, seed int64) (useful, replayed uint64, err error) {
	p := pcd.NewChecker(nil, pcd.BySeq)
	ic := icd.NewChecker(s.built.Prog, nil, icd.Options{Logging: true, OnSCC: func(scc []*txn.Txn) {
		before := p.Stats().PreciseCycles
		p.Process(scc)
		if p.Stats().PreciseCycles > before {
			useful++
		}
	}})
	_, err = vm.NewExec(s.built.Prog, vm.Config{Sched: s.sched(seed), Inst: ic, Atomic: s.spec.Atomic}).RunContext(ctx)
	return useful, p.Stats().SCCsProcessed, err
}

// counts are the layer counts the traced run must reproduce exactly for a
// given seed.
type counts struct {
	vmEvents, octetSlow, octetAll, logEntries, sccs, pcdTxns, veloEdges uint64
}

func (c *counts) addSingle(lr *layerRun) {
	o, r := lr.octet, lr.res
	c.vmEvents += r.VMStats.Events().Total()
	c.octetSlow += o.Conflicting + o.Upgrading + o.Fences
	c.octetAll += o.FastPath + o.Initial + o.Upgrading + o.Fences + o.Conflicting
	c.logEntries += r.Txn.LogEntries
	c.sccs += r.ICD.SCCs
	c.pcdTxns += r.PCD.TxnsProcessed
}

// pair is one traced (program, seed) check.
type pair struct {
	s    *subject
	seed int64
}

// acc sums traced quantities over checks.
type acc struct {
	n   int
	sum map[string]float64
}

func (a *acc) add(k string, v float64) {
	if a.sum == nil {
		a.sum = make(map[string]float64)
	}
	a.sum[k] += v
}

func (a *acc) mean(k string) float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum[k] / float64(a.n)
}

// runTraced is the traced run: per-layer self times and counts over a fixed
// set of (program, seed) pairs, repeated for timing until the budget has
// passed, then the service path layer by layer.
func runTraced(ctx context.Context, wl workload, seed int64, budget time.Duration, w io.Writer) (*result, error) {
	res := newResult()
	start := time.Now()
	e, err := setup(ctx, wl, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var pairs []pair
	for i := 0; i < tracedPairs; i++ {
		for _, s := range e.live {
			pairs = append(pairs, pair{s, rng.Int63()})
		}
	}

	var t acc // per single-run check time sums, over every pass
	var c1 counts
	var ctr acc // per-check count sums, first pass only
	var mt acc  // multi-run pipeline
	var useful, replayed float64
	hs := &hostSpeed{}
	for pass := 0; pass == 0 || time.Since(start) < budget/2; pass++ {
		for pi, p := range pairs {
			hs.sample(1)
			runs := make(map[config]*layerRun, numConfigs)
			// Rotate the configurations so that each follows each alike.
			for k := 0; k < int(numConfigs); k++ {
				cfg := config((k + pi + pass) % int(numConfigs))
				lr, err := runConfig(ctx, p.s, p.seed, cfg, false)
				if err != nil {
					return nil, err
				}
				runs[cfg] = lr
			}
			t0 := time.Now()
			ref, err := singleCheck(ctx, p.s, p.seed)
			untraced := time.Since(t0)
			if err != nil {
				res.check(fmt.Sprintf("%s seed %d: single-run: %v", p.s.name, p.seed, err))
				continue
			}
			e := runs[cfgSingle]
			res.check(blamedProblem(p.s, "traced single-run", p.seed, e.blamed, ref.BlamedMethodNames(p.s.built.Prog)))
			t.n++
			t.add("wall", ms(e.wall))
			t.add("untraced", ms(untraced))
			t.add("core", ms(e.wall-e.exec-e.report))
			base, bare := runs[cfgBaseline], runs[cfgBare]
			// The timers' cost outside the timed windows lands in Exec.Run;
			// the baseline configuration measures it (its callbacks are empty).
			t.add("vm", ms(e.exec-e.cb-(base.exec-base.cb-bare.exec)))
			t.add("timers", ms(base.exec-bare.exec))
			t.add("timers.inside", ms(base.cb))
			t.add("cb", ms(e.cb))
			t.add("pcd", ms(e.pcd))
			t.add("report", ms(e.report))
			t.add("octet", ms(runs[cfgOctet].cb))
			t.add("icd", ms(runs[cfgICD].cb))
			t.add("icd+scc", ms(runs[cfgICDSCC].cb))
			t.add("icd+log", ms(runs[cfgLog].cb))
			t.add("velodrome", ms(runs[cfgVelodrome].cb))
			t.add("alloc.icd", runs[cfgICD].allocKB)
			t.add("alloc.log", runs[cfgLog].allocKB)
			if pass > 0 {
				continue
			}
			c1.addSingle(e)
			c1.veloEdges += runs[cfgVelodrome].res.Velo.EdgesAdded
			ctr.n++
			ctr.add("txns", float64(e.res.Txn.RegularTxns+e.res.Txn.UnaryTxns))
			ctr.add("idg_edges", float64(e.res.ICD.IDGEdges))
			ctr.add("scc_txns", float64(e.res.ICD.SCCTxns))
			ctr.add("pcd.sccs", float64(e.res.PCD.SCCsProcessed))
			ctr.add("velo.cycle_checks", float64(runs[cfgVelodrome].res.Velo.CycleChecks))
			u, n, err := usefulSCCs(ctx, p.s, p.seed)
			if err != nil {
				return nil, err
			}
			if n != e.res.PCD.SCCsProcessed {
				res.invalid(fmt.Sprintf("%s seed %d: the SCC count behind pcd.useful_frac (%d) differs from core's (%d)",
					p.s.name, p.seed, n, e.res.PCD.SCCsProcessed))
			}
			useful += float64(u)
			replayed += float64(n)
		}
		// The multi-run pipeline, step by step as core.MultiRunContext
		// runs it, on the first pairs of each program.
		for _, p := range pairs[:tracedMultiPairs*len(e.live)] {
			if err := tracedMulti(ctx, p, pass == 0, &mt, res); err != nil {
				return nil, err
			}
		}
	}
	if t.n == 0 {
		return nil, fmt.Errorf("no traced check completed")
	}

	// Cost model: the same configurations with meters attached, over the
	// first-pass pairs. Their counts must equal the first pass's.
	var units [numConfigs]float64
	var pcdUnits float64
	var c2 counts
	for _, p := range pairs {
		for cfg := config(0); cfg < numConfigs; cfg++ {
			lr, err := runConfig(ctx, p.s, p.seed, cfg, true)
			if err != nil {
				return nil, err
			}
			units[cfg] += float64(lr.units)
			if cfg == cfgSingle {
				pcdUnits += float64(lr.pcdUnits)
				c2.addSingle(lr)
				// The engine's unit counters are modelled cost: only a
				// metered run fills them.
				ctr.add("detection_units", float64(lr.res.ICD.DetectionUnits))
				ctr.add("maintenance_units", float64(lr.res.ICD.MaintenanceUnits))
			}
			if cfg == cfgVelodrome {
				c2.veloEdges += lr.res.Velo.EdgesAdded
			}
		}
	}
	if c1 != c2 {
		res.invalid(fmt.Sprintf("layer counts differ between two passes over the same seeds: %+v vs %+v", c1, c2))
	}

	sv, err := tracedServe(ctx, e, res)
	if err != nil {
		return nil, err
	}

	n := float64(ctr.n)
	tm := t.mean
	octetMs := tm("octet") - tm("timers.inside")
	icdMs := tm("icd") - tm("octet")
	logMs := tm("icd+log") - tm("icd")
	sccMs := tm("icd+scc") - tm("icd")
	slow := 0.0
	if c1.octetAll > 0 {
		slow = float64(c1.octetSlow) / float64(c1.octetAll)
	}
	usefulFrac := 0.0
	if replayed > 0 {
		usefulFrac = useful / replayed
	}
	res.set("vm.ms", "ms", tm("vm"))
	res.set("vm.events", "count", float64(c1.vmEvents)/n)
	res.set("octet.ms", "ms", octetMs)
	res.set("octet.slow_frac", "ratio", slow)
	res.set("icd.ms", "ms", icdMs)
	res.set("icd.log_ms", "ms", logMs)
	res.set("txn.txns", "count", ctr.mean("txns"))
	res.set("txn.log_entries", "count", float64(c1.logEntries)/n)
	res.set("txn.alloc_kb", "KB", tm("alloc.log")-tm("alloc.icd"))
	res.set("graph.scc_ms", "ms", sccMs)
	res.set("graph.idg_edges", "count", ctr.mean("idg_edges"))
	res.set("graph.sccs", "count", float64(c1.sccs)/n)
	res.set("graph.scc_txns", "count", ctr.mean("scc_txns"))
	res.set("icd.detection_units", "count", ctr.mean("detection_units"))
	res.set("icd.maintenance_units", "count", ctr.mean("maintenance_units"))
	res.set("pcd.ms", "ms", tm("pcd"))
	res.set("pcd.sccs", "count", ctr.mean("pcd.sccs"))
	res.set("pcd.txns", "count", float64(c1.pcdTxns)/n)
	res.set("pcd.useful_frac", "ratio", usefulFrac)
	res.set("velodrome.ms", "ms", tm("velodrome")-tm("timers.inside"))
	res.set("velodrome.edges", "count", float64(c1.veloEdges)/n)
	res.set("velodrome.cycle_checks", "count", ctr.mean("velo.cycle_checks"))
	res.set("core.collect_ms", "ms", tm("core"))
	res.set("core.report_ms", "ms", tm("report"))
	res.set("multi.first_ms", "ms", mt.mean("first"))
	res.set("multi.second_ms", "ms", mt.mean("second"))
	res.set("multi.filter_methods", "count", mt.sum["filter"]/float64(tracedMultiPairs*len(e.live)))
	res.set("trace.decode_ms", "ms", sv.decodeMs)
	res.set("trace.bytes", "bytes", sv.bytes)
	res.set("trace.replay_ms", "ms", sv.replayMs)
	res.set("store.get_ms", "ms", sv.getMs)
	res.set("store.put_ms", "ms", sv.putMs)
	res.set("store.hit_frac", "ratio", sv.hitFrac)
	res.set("server.rejected", "count", sv.rejected)
	res.set("serve.gen_late_ms", "ms", sv.lateMs)

	// Per-layer times are scaled to the reference host's speed like the
	// end-to-end ones; the reconciliation below works in raw wall clock.
	hostFactor := refCalibMs / median(hs.all)
	for name, m := range res.metrics {
		if m.Unit == "ms" {
			m.Value *= hostFactor
			res.metrics[name] = m
		}
	}
	fmt.Fprintf(w, "workload %s, seed %d: traced single-run checks %d (%d pairs x %d passes), programs %v\n",
		wl.name, seed, t.n, len(pairs), t.n/len(pairs), names(e.live))
	fmt.Fprintf(w, "host speed: calibration median %.4f ms over %d runs; times scaled by %.4f to a %.1f ms calibration\n",
		median(hs.all), len(hs.all), hostFactor, refCalibMs)
	fmt.Fprintf(w, "per-layer metrics (means per single-run check; counts over the first pass):\n")
	res.printMetrics(w)

	// Reconciliation: the layers' self times against the whole check.
	whole := tm("wall")
	parts := []struct {
		name string
		v    float64
	}{
		{"core (RunContext - execute span)", tm("core")},
		{"report (core.ViolationSummary)", tm("report")},
		{"vm (Exec.Run - callbacks)", tm("vm")},
		{"octet (octet-only - empty callbacks)", octetMs},
		{"icd (icd - octet-only)", icdMs},
		{"icd logging (icd+log - icd)", logMs},
		{"graph SCC detection (icd+scc - icd)", sccMs},
		{"pcd (core's pcd.replay spans)", tm("pcd")},
		{"callback timers (baseline - bare)", tm("timers")},
	}
	sum := 0.0
	fmt.Fprintf(w, "reconciliation of one traced single-run check (raw wall clock, mean %.4f ms; second column: share without the timers):\n", whole)
	for i, p := range parts {
		sum += p.v
		withoutTimers := fmt.Sprintf("%5.1f%%", 100*p.v/(whole-tm("timers")))
		if i == len(parts)-1 { // the timers row itself
			withoutTimers = ""
		}
		fmt.Fprintf(w, "  %-38s %10.4f ms  %5.1f%%  %s\n", p.name, p.v, 100*p.v/whole, withoutTimers)
	}
	gap := (sum - whole) / whole
	fmt.Fprintf(w, "  %-38s %10.4f ms  (%+.2f%% of the whole; tolerance %.0f%%)\n", "sum of layers", sum, 100*gap, 100*reconcileTolerance)
	fmt.Fprintf(w, "  interaction (single - pcd - icd+log - icd+scc + icd callbacks): %.4f ms\n",
		tm("cb")-tm("pcd")-tm("icd+log")-tm("icd+scc")+tm("icd"))
	if gap > reconcileTolerance || gap < -reconcileTolerance {
		res.invalid(fmt.Sprintf("reconciliation: layers sum to %.4f ms, the whole check is %.4f ms", sum, whole))
	}
	fmt.Fprintf(w, "tracing overhead: traced %.4f ms - untraced %.4f ms = %.4f ms per single-run check (%+.1f%%)\n",
		whole, tm("untraced"), whole-tm("untraced"), 100*(whole-tm("untraced"))/tm("untraced"))
	sv.report(w, res)

	// Cost model against wall clock, layer by layer (informational).
	np := float64(len(pairs))
	fmt.Fprintf(w, "cost model vs wall clock (units and raw ms per check, first-pass pairs):\n")
	row := func(name string, u, msv float64) {
		ratio := 0.0
		if u != 0 {
			ratio = msv * 1e6 / u
		}
		fmt.Fprintf(w, "  %-14s %14.0f units %10.4f ms %10.3f ns/unit\n", name, u/np, msv, ratio)
	}
	row("vm", units[cfgBare], tm("vm"))
	row("octet", units[cfgOctet]-units[cfgBaseline], octetMs)
	row("icd", units[cfgICD]-units[cfgOctet], icdMs)
	row("icd logging", units[cfgLog]-units[cfgICD], logMs)
	row("graph SCC", units[cfgICDSCC]-units[cfgICD], sccMs)
	row("pcd", pcdUnits, tm("pcd"))
	row("velodrome", units[cfgVelodrome]-units[cfgBare], tm("velodrome")-tm("timers.inside"))
	fmt.Fprintf(w, "layer counts (must repeat exactly for seed %d): %+v\n", seed, c1)
	return res, nil
}

// tracedMulti runs the multi-run pipeline's steps with each one timed: the
// first runs, the union filter, and the filtered second run, checked
// against VeloSecond under the same filter.
func tracedMulti(ctx context.Context, p pair, first bool, mt *acc, res *result) error {
	prog, atomic := p.s.built.Prog, p.s.spec.Atomic
	seedBase, secondSeed := p.seed%(1<<40), p.seed+1
	t0 := time.Now()
	var firsts []*core.Result
	for i := 0; i < firstRuns; i++ {
		r, err := core.RunContext(ctx, prog, core.Config{Analysis: core.DCFirst, Seed: seedBase + int64(i), Atomic: atomic})
		if err != nil {
			return fmt.Errorf("%s first run: %w", p.s.name, err)
		}
		firsts = append(firsts, r)
	}
	t1 := time.Now()
	filter := core.UnionFilter(firsts)
	second, err := core.RunContext(ctx, prog, core.Config{Analysis: core.DCSecond, Seed: secondSeed, Atomic: atomic, Filter: filter})
	t2 := time.Now()
	if err != nil {
		return fmt.Errorf("%s second run: %w", p.s.name, err)
	}
	mt.n++
	mt.add("first", ms(t1.Sub(t0)))
	mt.add("second", ms(t2.Sub(t1)))
	if !first {
		return nil
	}
	mt.add("filter", float64(len(filter.Methods)))
	ref, err := core.RunContext(ctx, prog, core.Config{Analysis: core.VeloSecond, Seed: secondSeed, Atomic: atomic, Filter: filter})
	if err != nil {
		return fmt.Errorf("%s velodrome second run: %w", p.s.name, err)
	}
	res.check(verdictProblem(p.s, "traced multi-run", secondSeed, second, ref))
	return nil
}
