package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"doublechecker/internal/cost"
	"doublechecker/internal/faultinject"
	"doublechecker/internal/spec"
	"doublechecker/internal/supervise"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
	"doublechecker/internal/workloads"
)

// serialMultiRunContext is MultiRunContext as it was before the first runs
// became a concurrent ensemble: one run after another on the calling
// goroutine. It is the reference the ensemble must reproduce.
func serialMultiRunContext(ctx context.Context, prog *vm.Program, atomic func(vm.MethodID) bool, firstTrials int, seedBase, secondSeed int64) (*MultiRunOutcome, error) {
	o := &MultiRunOutcome{}
	var firstErrs []error
	for i := 0; i < firstTrials; i++ {
		seed := seedBase + int64(i)
		r, err := RunContext(ctx, prog, Config{
			Analysis: DCFirst,
			Seed:     seed,
			Atomic:   atomic,
		})
		if err != nil {
			if ctx.Err() != nil {
				return o, fmt.Errorf("first run %d: %w", i, err)
			}
			o.FirstFailures = append(o.FirstFailures, FirstRunFailure{Index: i, Seed: seed, Err: err})
			firstErrs = append(firstErrs, fmt.Errorf("first run %d (seed %d): %w", i, seed, err))
			continue
		}
		o.Firsts = append(o.Firsts, r)
	}
	if len(o.Firsts) == 0 && firstTrials > 0 {
		return o, fmt.Errorf("core: all %d first runs failed: %w", firstTrials, errors.Join(firstErrs...))
	}
	second, err := RunContext(ctx, prog, Config{
		Analysis: DCSecond,
		Seed:     secondSeed,
		Atomic:   atomic,
		Filter:   UnionFilter(o.Firsts),
	})
	o.Second = second
	if err != nil {
		return o, fmt.Errorf("second run: %w", err)
	}
	return o, nil
}

// withProcs runs the rest of the test at GOMAXPROCS n.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// ensembleProcs are the GOMAXPROCS settings the determinism tests compare:
// the single-worker path, the benchmark host's two CPUs, and more workers
// than a typical ensemble keeps busy.
var ensembleProcs = []int{1, 2, 8}

// violationKey renders a violation by content (transaction IDs, methods,
// threads, blame, detection clock), not by pointer identity.
func violationKey(v txn.Violation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seq=%d blamed=%v cycle=", v.Seq, v.BlamedMethods)
	for _, tx := range v.Cycle {
		fmt.Fprintf(&b, "[%d t%d m%d u%v]", tx.ID, tx.Thread, tx.Method, tx.Unary)
	}
	return b.String()
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// assertOutcomesEqual compares two multi-run outcomes field by field.
func assertOutcomesEqual(t *testing.T, got, want *MultiRunOutcome, gotErr, wantErr error) {
	t.Helper()
	if errString(gotErr) != errString(wantErr) {
		t.Fatalf("error %q, want %q", errString(gotErr), errString(wantErr))
	}
	if len(got.Firsts) != len(want.Firsts) {
		t.Fatalf("%d first runs survived, want %d", len(got.Firsts), len(want.Firsts))
	}
	for i := range want.Firsts {
		g, w := got.Firsts[i], want.Firsts[i]
		if fmt.Sprint(g.StaticMethods) != fmt.Sprint(w.StaticMethods) || g.StaticUnary != w.StaticUnary {
			t.Errorf("first run %d: static info %v/%v, want %v/%v", i, g.StaticMethods, g.StaticUnary, w.StaticMethods, w.StaticUnary)
		}
		if gj, wj := g.Telemetry.Deterministic().JSON(), w.Telemetry.Deterministic().JSON(); string(gj) != string(wj) {
			t.Errorf("first run %d: telemetry differs:\n%s\nwant\n%s", i, gj, wj)
		}
	}
	if len(got.FirstFailures) != len(want.FirstFailures) {
		t.Fatalf("%d first-run failures, want %d", len(got.FirstFailures), len(want.FirstFailures))
	}
	for i, w := range want.FirstFailures {
		g := got.FirstFailures[i]
		if g.Index != w.Index || g.Seed != w.Seed || errString(g.Err) != errString(w.Err) {
			t.Errorf("failure %d: %+v, want %+v", i, g, w)
		}
	}
	if (got.Second == nil) != (want.Second == nil) {
		t.Fatalf("second run present %v, want %v", got.Second != nil, want.Second != nil)
	}
	if want.Second == nil {
		return
	}
	if len(got.Second.Violations) != len(want.Second.Violations) {
		t.Fatalf("second run: %d violations, want %d", len(got.Second.Violations), len(want.Second.Violations))
	}
	for i, w := range want.Second.Violations {
		if g := violationKey(got.Second.Violations[i]); g != violationKey(w) {
			t.Errorf("second-run violation %d: %s, want %s", i, g, violationKey(w))
		}
	}
}

// workloadSubject builds a benchmark at a small scale with its paper-style
// initial specification.
func workloadSubject(t *testing.T, name string) (*vm.Program, func(vm.MethodID) bool) {
	t.Helper()
	b, err := workloads.Build(name, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sp := spec.Initial(b.Prog)
	if err := sp.ExcludeByName(b.InitialExclusions...); err != nil {
		t.Fatal(err)
	}
	return b.Prog, sp.Atomic
}

func TestEnsembleMultiRunMatchesSerialOracle(t *testing.T) {
	type subject struct {
		name     string
		prog     *vm.Program
		atomic   func(vm.MethodID) bool
		n        int
		seedBase int64
		second   int64
	}
	var subjects []subject
	for _, name := range []string{"hsqldb6", "xalan6", "tsp"} {
		prog, atomic := workloadSubject(t, name)
		subjects = append(subjects, subject{name, prog, atomic, 10, 40, 7})
	}
	abba, abbaAtomic := abbaProg()
	subjects = append(subjects, subject{"abba (lost first runs)", abba, abbaAtomic, 20, 0, 99})
	stuck, stuckAtomic := stuckProg()
	subjects = append(subjects, subject{"stuck (all first runs lost)", stuck, stuckAtomic, 5, 0, 99})

	for _, s := range subjects {
		want, wantErr := serialMultiRunContext(context.Background(), s.prog, s.atomic, s.n, s.seedBase, s.second)
		if s.name == "abba (lost first runs)" && (len(want.FirstFailures) == 0 || len(want.Firsts) == 0) {
			t.Fatalf("abba seeds 0..19 no longer mix lost and surviving first runs")
		}
		if s.name == "hsqldb6" && (len(UnionFilter(want.Firsts).Methods) == 0 || len(want.Second.Violations) == 0) {
			t.Fatalf("hsqldb6 reports no static information or no second-run violation; the comparison would be vacuous")
		}
		for _, procs := range ensembleProcs {
			t.Run(fmt.Sprintf("%s/procs=%d", s.name, procs), func(t *testing.T) {
				withProcs(t, procs)
				got, gotErr := MultiRunContext(context.Background(), s.prog, s.atomic, s.n, s.seedBase, s.second)
				assertOutcomesEqual(t, got, want, gotErr, wantErr)
			})
		}
	}
}

// stallUnlessLast makes every run but the last-index one sleep at its first
// access, so under several workers the last-index run finishes first: a
// last-writer-wins gauge written straight into a shared registry would then
// end up holding an earlier run's value.
func stallUnlessLast(cfgs []Config) {
	for i := range cfgs[:len(cfgs)-1] {
		cfgs[i].WrapInst = func(in vm.Instrumentation) vm.Instrumentation {
			return faultinject.Inst(in, &faultinject.Plan{StallAtAccess: 1, StallFor: 5 * time.Millisecond})
		}
	}
}

// sharedRegistryConfigs returns metered first-run configurations of prog
// that all write one registry.
func sharedRegistryConfigs(prog *vm.Program, atomic func(vm.MethodID) bool, n int, reg *telemetry.Registry) []Config {
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = Config{Analysis: DCFirst, Seed: int64(100 + i), Atomic: atomic,
			Meter: cost.NewMeter(cost.Default()), Telemetry: reg}
	}
	return cfgs
}

func TestEnsembleSharedTelemetryMatchesSerial(t *testing.T) {
	prog, atomic := workloadSubject(t, "hsqldb6")
	const n = 6
	want := telemetry.NewRegistry()
	cfgs := sharedRegistryConfigs(prog, atomic, n, want)
	stallUnlessLast(cfgs)
	var totals []float64
	for _, cfg := range cfgs {
		if _, err := RunContext(context.Background(), prog, cfg); err != nil {
			t.Fatal(err)
		}
		totals = append(totals, want.Snapshot().Gauge(telemetry.CostTotal))
	}
	if totals[n-1] == totals[n-2] {
		t.Fatalf("the last two runs leave the same %s gauge (%v); the test cannot tell them apart", telemetry.CostTotal, totals)
	}
	wantJSON := want.Snapshot().Deterministic().JSON()
	for _, procs := range ensembleProcs {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			reg := telemetry.NewRegistry()
			cfgs := sharedRegistryConfigs(prog, atomic, n, reg)
			stallUnlessLast(cfgs)
			_, errs := RunEnsemble(context.Background(), prog, cfgs)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
			}
			if got := reg.Snapshot().Deterministic().JSON(); string(got) != string(wantJSON) {
				t.Fatalf("shared registry differs from the serial loop's:\n%s\nwant\n%s", got, wantJSON)
			}
		})
	}
}

func TestEnsemblePanicReraisedWithWorkerStack(t *testing.T) {
	prog, atomic := workloadSubject(t, "hsqldb6")
	const n, target = 6, 3
	build := func(reg *telemetry.Registry) []Config {
		cfgs := sharedRegistryConfigs(prog, atomic, n, reg)
		cfgs[target].WrapInst = func(in vm.Instrumentation) vm.Instrumentation {
			return faultinject.Inst(in, &faultinject.Plan{PanicAtAccess: 50, PanicMsg: "ensemble member bug"})
		}
		return cfgs
	}
	catch := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}

	// Serially, runs before the target complete, the target leaves its
	// partial work, and nothing after it starts.
	want := telemetry.NewRegistry()
	if r := catch(func() {
		for _, cfg := range build(want) {
			if _, err := RunContext(context.Background(), prog, cfg); err != nil {
				t.Fatal(err)
			}
		}
	}); r == nil {
		t.Fatal("the injected panic did not fire")
	}
	wantJSON := want.Snapshot().Deterministic().JSON()

	for _, procs := range ensembleProcs {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			reg := telemetry.NewRegistry()
			r := catch(func() { RunEnsemble(context.Background(), prog, build(reg)) })
			p, ok := r.(*supervise.Panic)
			if !ok {
				t.Fatalf("recovered %T %v, want *supervise.Panic", r, r)
			}
			if p.Value != "ensemble member bug" {
				t.Fatalf("panic value %v", p.Value)
			}
			stack := string(p.Stack)
			if !strings.Contains(stack, "faultinject.(*inst).Access") || !strings.Contains(stack, "core.runMember") {
				t.Fatalf("stack is not the panicking run's own:\n%s", stack)
			}
			if d := supervise.PanicDigest(p.Stack); len(d) != 8 {
				t.Fatalf("digest %q", d)
			}
			if got := reg.Snapshot().Deterministic().JSON(); string(got) != string(wantJSON) {
				t.Fatalf("registry after the panic differs from the serial loop's:\n%s\nwant\n%s", got, wantJSON)
			}
		})
	}
}

func TestEnsembleCancellationStartsNoFurtherRuns(t *testing.T) {
	prog, isAtomic := workloadSubject(t, "tsp")
	const n, cancelAt = 16, 2
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var started, afterCancel atomic.Int32
			cfgs := make([]Config, n)
			for i := range cfgs {
				cfgs[i] = Config{Analysis: DCFirst, Seed: int64(i), Atomic: isAtomic}
				cfgs[i].WrapInst = func(in vm.Instrumentation) vm.Instrumentation {
					started.Add(1)
					if ctx.Err() != nil {
						afterCancel.Add(1)
					}
					if i == cancelAt {
						return cancelAtStart{in, cancel}
					}
					return in
				}
			}
			o, err := FirstRuns(ctx, prog, cfgs)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if len(o.FirstFailures) != 0 {
				t.Fatalf("cancellation recorded as lost runs: %+v", o.FirstFailures)
			}
			// A worker that passed its cancellation check just before the
			// cancel may still start one run; no worker starts a second.
			if limit := int32(procs - 1); afterCancel.Load() > limit {
				t.Fatalf("%d runs started after cancellation, want at most %d", afterCancel.Load(), limit)
			}
			if procs == 1 && started.Load() != cancelAt+1 {
				t.Fatalf("one worker started %d runs, want %d", started.Load(), cancelAt+1)
			}
			if started.Load() == n {
				t.Fatal("every run started despite the cancellation")
			}
		})
	}
}

// cancelAtStart cancels the ensemble's context as its run begins.
type cancelAtStart struct {
	vm.Instrumentation
	cancel context.CancelFunc
}

func (c cancelAtStart) ProgramStart(e vm.ExecView) {
	c.cancel()
	c.Instrumentation.ProgramStart(e)
}

func TestEnsembleEmpty(t *testing.T) {
	prog, _, atomic := racyProgram()
	results, errs := RunEnsemble(context.Background(), prog, nil)
	if len(results) != 0 || len(errs) != 0 {
		t.Fatalf("empty ensemble returned %d results, %d errors", len(results), len(errs))
	}
	o, err := MultiRunContext(context.Background(), prog, atomic, 0, 0, 99)
	if err != nil || len(o.Firsts) != 0 || o.Second == nil {
		t.Fatalf("zero first runs: outcome %+v, err %v", o, err)
	}
}
