package doublechecker

// First-run ensemble tests: ModeMultiRun executes its first runs
// concurrently (core.FirstRuns). These prove that the concurrency is
// invisible in the Report — byte-identical to the serial loop it replaced
// at any GOMAXPROCS — and that supervision (panic quarantine, cancellation,
// the inject hook) behaves across the worker goroutines as it did on one.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"doublechecker/internal/core"
	"doublechecker/internal/faultinject"
	"doublechecker/internal/vm"
)

// serialFirstRuns is the first-run loop ModeMultiRun ran before the
// ensemble: one run after another on the calling goroutine, lost runs
// noted in index order, the trial failed only when every run is lost. It
// is the reference core.FirstRuns must match.
func serialFirstRuns(ctx context.Context, prog *vm.Program, cfgs []core.Config) (*core.MultiRunOutcome, error) {
	o := &core.MultiRunOutcome{}
	var firstErrs []error
	for i, cfg := range cfgs {
		res, err := core.RunContext(ctx, prog, cfg)
		if err != nil {
			if ctx.Err() != nil {
				return o, err
			}
			o.FirstFailures = append(o.FirstFailures, core.FirstRunFailure{Index: i, Seed: cfg.Seed, Err: err})
			firstErrs = append(firstErrs, fmt.Errorf("first run %d (seed %d): %w", i, cfg.Seed, err))
			continue
		}
		o.Firsts = append(o.Firsts, res)
	}
	if len(o.Firsts) == 0 && len(cfgs) > 0 {
		return o, fmt.Errorf("all %d first runs failed: %w", len(cfgs), errors.Join(firstErrs...))
	}
	return o, nil
}

// useSerialFirstRuns routes ModeMultiRun through the serial reference loop
// for the rest of the test.
func useSerialFirstRuns(t *testing.T) {
	t.Helper()
	firstRuns = serialFirstRuns
	t.Cleanup(func() { firstRuns = core.FirstRuns })
}

// withProcs runs the rest of the test at GOMAXPROCS n.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// renderReport encodes every field of a report, failure errors as their
// messages, so two reports compare byte for byte.
func renderReport(t *testing.T, r *Report) string {
	t.Helper()
	type failure struct {
		TrialFailure
		Err string
	}
	fs := make([]failure, len(r.Failures))
	for i, f := range r.Failures {
		fs[i] = failure{f, f.Err.Error()}
	}
	b, err := json.MarshalIndent(struct {
		*Report
		Failures []failure
	}{r, fs}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// stressedMultiRun is a three-trial multi-run check that takes every
// tolerated-failure path of the first-run ensemble: trial 1 loses one
// first run, trial 2 loses all of them (and recovers on its rotated retry
// seed), and trial 3's second run panics, so the last run to write the
// check's last-writer-wins gauges (vm.aborted_tx, cost.*) is a first run.
// Trial 3's first runs stall except the last one, which therefore finishes
// first whenever several workers run.
func stressedMultiRun() Options {
	opts := Options{Mode: ModeMultiRun, Trials: 3, Seed: 1, FirstRuns: 5, MemoryBudget: 1 << 30}
	opts.inject = func(a core.Analysis, seed int64, cfg *core.Config) {
		switch {
		case a == core.DCFirst && seed == 1002:
			cfg.MaxSteps = 5
		case a == core.DCFirst && seed/1000 == 2:
			cfg.MaxSteps = 5
		case a == core.DCFirst && seed/1000 == 3 && seed%1000 < 4:
			cfg.WrapInst = func(in vm.Instrumentation) vm.Instrumentation {
				return faultinject.Inst(in, &faultinject.Plan{StallAtAccess: 1, StallFor: 3 * time.Millisecond})
			}
		case a == core.DCSecond && seed == 3:
			cfg.WrapInst = func(in vm.Instrumentation) vm.Instrumentation {
				return faultinject.Inst(in, &faultinject.Plan{PanicAtAccess: 7})
			}
		}
	}
	return opts
}

func TestMultiRunReportMatchesSerialOracle(t *testing.T) {
	opts := stressedMultiRun()
	var want string
	t.Run("serial", func(t *testing.T) {
		useSerialFirstRuns(t)
		r, err := CheckSource(racySource, opts)
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[string]int{}
		for _, f := range r.Failures {
			kinds[f.Analysis+"/"+f.Kind]++
		}
		// Trial 1's lost first run is a note; trial 2's lost ensemble is
		// its first attempt's failure; trial 3 is quarantined.
		if kinds["dc-first/step-limit"] != 1 || kinds["multi-run/step-limit"] != 1 || kinds["multi-run/panic"] != 1 {
			t.Fatalf("oracle report does not take every failure path: %v", kinds)
		}
		if r.CompletedTrials != 2 {
			t.Fatalf("oracle completed %d trials, want 2", r.CompletedTrials)
		}
		want = renderReport(t, r)
	})
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			r, err := CheckSource(racySource, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderReport(t, r); got != want {
				t.Fatalf("report differs from the serial loop's:\n%s\nwant\n%s", got, want)
			}
		})
	}
}

func TestMultiRunReportIdenticalAcrossProcs(t *testing.T) {
	opts := Options{Mode: ModeMultiRun, Trials: 4, Seed: 3, FirstRuns: 10}
	var reports []string
	for _, procs := range []int{1, 8} {
		withProcs(t, procs)
		r, err := CheckSource(racySource, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Violations) == 0 {
			t.Fatal("multi-run check found nothing; the comparison would be vacuous")
		}
		reports = append(reports, renderReport(t, r))
	}
	if reports[0] != reports[1] {
		t.Fatalf("GOMAXPROCS 8 report differs from GOMAXPROCS 1:\n%s\nwant\n%s", reports[1], reports[0])
	}
}

var hexDigest = regexp.MustCompile(`^[0-9a-f]{8}$`)

// panicInFirstRun injects a panic into the first run with the given seed.
func panicInFirstRun(opts Options, plans map[int64]faultinject.Plan) Options {
	opts.inject = func(a core.Analysis, seed int64, cfg *core.Config) {
		if p, ok := plans[seed]; ok && a == core.DCFirst {
			cfg.WrapInst = func(in vm.Instrumentation) vm.Instrumentation {
				return faultinject.Inst(in, &p)
			}
		}
	}
	return opts
}

func TestMultiRunFirstRunPanicIsQuarantined(t *testing.T) {
	opts := Options{Mode: ModeMultiRun, Trials: 4, Seed: 1, FirstRuns: 4}
	baseline, err := CheckSource(racySource, opts)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.CompletedTrials != 4 || len(baseline.Failures) != 0 {
		t.Fatalf("baseline not clean: %+v", baseline.Failures)
	}
	const targetSeed = 2
	var digests []string
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			injected := panicInFirstRun(opts, map[int64]faultinject.Plan{
				targetSeed*1000 + 1: {PanicAtAccess: 10, PanicMsg: "injected first-run bug"},
			})
			r, err := CheckSource(racySource, injected)
			if err != nil {
				t.Fatalf("a panicking first run aborted the check: %v", err)
			}
			if r.CompletedTrials != 3 || len(r.Failures) != 1 {
				t.Fatalf("completed %d, failures %+v; want 3 and one panic", r.CompletedTrials, r.Failures)
			}
			f := r.Failures[0]
			if f.Kind != "panic" || f.Seed != targetSeed || f.Analysis != string(ModeMultiRun) || f.Recovered {
				t.Fatalf("bad failure record: %+v", f)
			}
			if !hexDigest.MatchString(f.StackDigest) {
				t.Fatalf("stack digest %q is not 8 hex digits", f.StackDigest)
			}
			if f.Err == nil || !containsSub(f.Err.Error(), "checker panic: injected first-run bug") {
				t.Fatalf("failure lost the panic value: %v", f.Err)
			}
			assertSeedsUnchanged(t, baseline, r, targetSeed)
			digests = append(digests, f.StackDigest)
		})
	}
	if len(digests) == 2 && digests[0] != digests[1] {
		t.Fatalf("digest depends on GOMAXPROCS: %v", digests)
	}
}

func TestMultiRunFirstRunPanicDigestNamesTheSite(t *testing.T) {
	withProcs(t, 4)
	// Trials 1 and 2 panic at the same fault site under different seeds and
	// ensemble indices, trial 3 at another site; trial 4 is clean.
	opts := panicInFirstRun(Options{Mode: ModeMultiRun, Trials: 4, Seed: 1, FirstRuns: 4},
		map[int64]faultinject.Plan{
			1002: {PanicAtAccess: 10},
			2000: {PanicAtAccess: 10},
			3001: {PanicAtTxEnd: 2},
		})
	r, err := CheckSource(racySource, opts)
	if err != nil {
		t.Fatal(err)
	}
	digests := map[int64]string{}
	for _, f := range r.Failures {
		if f.Kind == "panic" {
			digests[f.Seed] = f.StackDigest
		}
	}
	if len(digests) != 3 || r.CompletedTrials != 1 {
		t.Fatalf("want three quarantined trials and one completed, got %+v", r.Failures)
	}
	if digests[1] != digests[2] {
		t.Errorf("the same fault site at two seeds digests differently: %s vs %s", digests[1], digests[2])
	}
	if digests[3] == digests[1] {
		t.Errorf("PanicAtTxEnd digests like PanicAtAccess (%s)", digests[3])
	}
}

func TestMultiRunCancellationStartsNoFurtherFirstRuns(t *testing.T) {
	const firstRunsN, cancelAt = 12, 2
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var started, afterCancel atomic.Int32
			opts := Options{Mode: ModeMultiRun, Trials: 3, Seed: 1, FirstRuns: firstRunsN}
			opts.inject = func(a core.Analysis, seed int64, cfg *core.Config) {
				if a != core.DCFirst {
					return
				}
				cfg.WrapInst = func(in vm.Instrumentation) vm.Instrumentation {
					started.Add(1)
					if ctx.Err() != nil {
						afterCancel.Add(1)
					}
					if seed == 1000+cancelAt {
						return cancelOnStart{in, cancel}
					}
					return in
				}
			}
			_, err := CheckSourceContext(ctx, racySource, opts)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("want ErrCanceled, got %v", err)
			}
			// A worker that passed its cancellation check just before the
			// cancel may still start one run; no worker starts a second.
			if limit := int32(procs - 1); afterCancel.Load() > limit {
				t.Fatalf("%d first runs started after cancellation, want at most %d", afterCancel.Load(), limit)
			}
			if procs == 1 && started.Load() != cancelAt+1 {
				t.Fatalf("one worker started %d first runs, want %d", started.Load(), cancelAt+1)
			}
			if started.Load() >= firstRunsN {
				t.Fatalf("%d first runs started; cancellation did not stop the ensemble", started.Load())
			}
		})
	}
}

// cancelOnStart cancels the check as its run begins.
type cancelOnStart struct {
	vm.Instrumentation
	cancel context.CancelFunc
}

func (c cancelOnStart) ProgramStart(e vm.ExecView) {
	c.cancel()
	c.Instrumentation.ProgramStart(e)
}

func TestMultiRunInjectCalledInIndexOrder(t *testing.T) {
	withProcs(t, 8)
	var calls []string
	opts := Options{Mode: ModeMultiRun, Trials: 2, Seed: 1, FirstRuns: 6}
	opts.inject = func(a core.Analysis, seed int64, _ *core.Config) {
		calls = append(calls, fmt.Sprintf("%v:%d", a, seed))
	}
	if _, err := CheckSource(racySource, opts); err != nil {
		t.Fatal(err)
	}
	var want []string
	for trial := int64(1); trial <= 2; trial++ {
		for i := int64(0); i < 6; i++ {
			want = append(want, fmt.Sprintf("dc-first:%d", trial*1000+i))
		}
		want = append(want, fmt.Sprintf("dc-second:%d", trial))
	}
	if fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Fatalf("inject calls %v, want %v", calls, want)
	}
}
