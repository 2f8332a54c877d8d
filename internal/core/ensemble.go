package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"doublechecker/internal/supervise"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/vm"
)

// RunEnsemble executes prog once per configuration, concurrently on
// min(GOMAXPROCS, len(cfgs)) worker goroutines, and returns each run's
// result and error in index order: results[i] and errs[i] belong to
// cfgs[i]. It is the driver behind multi-run mode's first runs (§5.1),
// which are independent executions that share nothing until their static
// information is unioned.
//
// The caller builds every configuration, on its own goroutine and in index
// order, before any run starts; only the executions run concurrently. The
// configurations must not share a Meter, a scheduler or instrumentation
// state. They may share a Telemetry registry: each run then writes into a
// private registry, and after the workers stop these are merged into the
// shared one in index order (telemetry.Registry.Merge), so the registry —
// its last-writer-wins gauges included — ends up as if the runs had
// executed one after another. A run's Result.Telemetry covers that run
// alone.
//
// Runs are started in index order. After ctx is done no further run
// starts; a run that never started reports ctx's error. A panicking run
// stops further starts too, and once every started run has returned, the
// lowest-index panic is re-raised on the calling goroutine as a
// *supervise.Panic carrying the panicking run's own stack, so a trial
// supervisor quarantines it with the digest of the panic site. The shared
// registries then hold the runs before the panicking one and its partial
// work, as a serial loop would have left them.
func RunEnsemble(ctx context.Context, prog *vm.Program, cfgs []Config) (results []*Result, errs []error) {
	n := len(cfgs)
	results, errs = make([]*Result, n), make([]error, n)
	panics := make([]*supervise.Panic, n)
	private := make([]*telemetry.Registry, n)
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				cfg := cfgs[i]
				if cfg.Telemetry != nil {
					private[i] = telemetry.NewRegistry()
					cfg.Telemetry = private[i]
				}
				results[i], errs[i], panics[i] = runMember(ctx, prog, cfg)
				if panics[i] != nil {
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()

	// Merge up to and including the first panicking run: the runs after it
	// would not have started in a serial loop.
	first := slices.IndexFunc(panics, func(p *supervise.Panic) bool { return p != nil })
	merged := n
	if first >= 0 {
		merged = first + 1
	}
	for i := 0; i < merged; i++ {
		if private[i] != nil {
			cfgs[i].Telemetry.Merge(private[i])
		}
	}
	if first >= 0 {
		panic(panics[first])
	}
	if cerr := ctx.Err(); cerr != nil {
		for i := int(next.Load()); i < n; i++ {
			errs[i] = cerr
		}
	}
	return results, errs
}

// runMember is one ensemble run, recovering a panic together with the
// stack it was raised on. Its name is a digest cut point
// (supervise.PanicDigest).
func runMember(ctx context.Context, prog *vm.Program, cfg Config) (res *Result, err error, p *supervise.Panic) {
	defer func() {
		if r := recover(); r != nil {
			if rp, ok := r.(*supervise.Panic); ok {
				p = rp
			} else {
				p = &supervise.Panic{Value: r, Stack: debug.Stack()}
			}
		}
	}()
	res, err = RunContext(ctx, prog, cfg)
	return res, err, nil
}

// FirstRuns executes a multi-run pipeline's first runs as one RunEnsemble
// and applies the pipeline's failure tolerance in index order: survivors
// go to Firsts, each lost run to FirstFailures (Seed is its Config.Seed).
// It errors when a run failed because ctx is done — the pipeline is
// canceled, not the run lost; the error wraps ctx's — or when every run was
// lost, in which case the error joins every run's.
func FirstRuns(ctx context.Context, prog *vm.Program, cfgs []Config) (*MultiRunOutcome, error) {
	results, errs := RunEnsemble(ctx, prog, cfgs)
	o := &MultiRunOutcome{}
	var lost []error
	for i, err := range errs {
		if err == nil {
			o.Firsts = append(o.Firsts, results[i])
			continue
		}
		if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
			return o, fmt.Errorf("first run %d: %w", i, err)
		}
		seed := cfgs[i].Seed
		o.FirstFailures = append(o.FirstFailures, FirstRunFailure{Index: i, Seed: seed, Err: err})
		lost = append(lost, fmt.Errorf("first run %d (seed %d): %w", i, seed, err))
	}
	if len(o.Firsts) == 0 && len(cfgs) > 0 {
		return o, fmt.Errorf("all %d first runs failed: %w", len(cfgs), errors.Join(lost...))
	}
	return o, nil
}
