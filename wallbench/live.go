package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"doublechecker/internal/core"
	"doublechecker/internal/supervise"
	"doublechecker/internal/telemetry"
)

const (
	// firstRuns is the multi-run pipeline's default ensemble size (§5.1).
	firstRuns = 10
	// multiEvery makes every multiEvery-th live iteration of a program
	// also time the multi-run pipeline; minMultiSamples bounds it below.
	multiEvery      = 4
	minMultiSamples = minTailSamples / multiEvery
)

// liveSamples are the live phase's per-program samples: times in ms
// normalized to the reference host's speed, allocation in KB, and the
// times unscaled.
type liveSamples struct {
	base, single, velo, multi, alloc samples
	raw                              struct{ base, single, velo, multi samples }
}

// addTime records one timing d of a program, scaled by the host-speed
// factor f and raw.
func addTime(scaled, raw samples, prog string, d time.Duration, f float64) {
	scaled.add(prog, ms(d)*f)
	raw.add(prog, ms(d))
}

// runLive times uninstrumented, single-run, Velodrome and multi-run checks
// over fresh schedule seeds until budget has passed and every program has
// enough samples for the tail percentile (giving up at three times the
// budget). Each verdict is checked against its reference and counted in
// res.
func runLive(ctx context.Context, e *env, seed int64, budget time.Duration, hs *hostSpeed, res *result) *liveSamples {
	ls := &liveSamples{base: samples{}, single: samples{}, velo: samples{}, multi: samples{}, alloc: samples{}}
	ls.raw.base, ls.raw.single, ls.raw.velo, ls.raw.multi = samples{}, samples{}, samples{}, samples{}
	rng := rand.New(rand.NewSource(seed))
	progs := names(e.live)
	enough := func() bool {
		return ls.single.minCount(progs) >= minTailSamples && ls.multi.minCount(progs) >= minMultiSamples &&
			ls.base.minCount(progs) >= minMultiSamples && ls.velo.minCount(progs) >= minMultiSamples
	}
	start := time.Now()
	hs.sample(calibRing)
	for i := 0; ; i++ {
		if elapsed := time.Since(start); elapsed >= budget && enough() {
			return ls
		} else if elapsed >= 3*budget {
			res.invalid(fmt.Sprintf("live phase: too few samples after %v", elapsed.Round(time.Second)))
			return ls
		}
		s := e.live[i%len(e.live)]
		round := i / len(e.live)
		runSeed := rng.Int63()
		hs.sample(1)
		f := hs.factor()
		var single, velo *core.Result
		// Rotate the order of the three modes so that garbage one check
		// leaves behind lands on each of the others alike.
		for k := 0; k < 3; k++ {
			switch (round + k) % 3 {
			case 0:
				t0 := time.Now()
				_, err := core.RunContext(ctx, s.built.Prog, core.Config{
					Analysis: core.Baseline, Sched: s.sched(runSeed), Atomic: s.spec.Atomic})
				d := time.Since(t0)
				if err != nil {
					res.invalid(fmt.Sprintf("%s seed %d: baseline: %v", s.name, runSeed, err))
					continue
				}
				addTime(ls.base, ls.raw.base, s.name, d, f)
			case 1:
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				t0 := time.Now()
				r, err := singleCheck(ctx, s, runSeed)
				d := time.Since(t0)
				runtime.ReadMemStats(&m1)
				if err != nil {
					res.check(fmt.Sprintf("%s seed %d: single-run: %v", s.name, runSeed, err))
					continue
				}
				single = r
				addTime(ls.single, ls.raw.single, s.name, d, f)
				ls.alloc.add(s.name, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
			case 2:
				t0 := time.Now()
				r, err := core.RunContext(ctx, s.built.Prog, core.Config{
					Analysis: core.Velodrome, Sched: s.sched(runSeed), Atomic: s.spec.Atomic})
				d := time.Since(t0)
				if err != nil {
					res.invalid(fmt.Sprintf("%s seed %d: velodrome: %v", s.name, runSeed, err))
					continue
				}
				velo = r
				addTime(ls.velo, ls.raw.velo, s.name, d, f)
			}
		}
		if single != nil {
			res.check(verdictProblem(s, "single-run", runSeed, single, velo))
		}

		if round%multiEvery == 0 {
			seedBase, secondSeed := rng.Int63n(1<<40), rng.Int63()
			t0 := time.Now()
			o, err := core.MultiRunContext(ctx, s.built.Prog, s.spec.Atomic, firstRuns, seedBase, secondSeed)
			d := time.Since(t0)
			if err != nil {
				res.check(fmt.Sprintf("%s seeds %d/%d: multi-run: %v", s.name, seedBase, secondSeed, err))
				continue
			}
			addTime(ls.multi, ls.raw.multi, s.name, d, f)
			ref, err := core.RunContext(ctx, s.built.Prog, core.Config{
				Analysis: core.VeloSecond, Seed: secondSeed, Atomic: s.spec.Atomic,
				Filter: core.UnionFilter(o.Firsts)})
			if err != nil {
				res.invalid(fmt.Sprintf("%s seed %d: velodrome second run: %v", s.name, secondSeed, err))
				ref = nil
			}
			res.check(verdictProblem(s, "multi-run", secondSeed, o.Second, ref))
		}
	}
}

// singleCheck is one single-run check as dcheck drives it: core.RunContext
// under supervise.Trial with dcheck's default budget, one registry per
// invocation.
func singleCheck(ctx context.Context, s *subject, seed int64) (*core.Result, error) {
	reg := telemetry.NewRegistry()
	out, err := supervise.Trial(ctx, supervise.Budget{Retries: 1, Telemetry: reg}, core.DCSingle.String(), seed,
		func(ctx context.Context, seed int64) (*core.Result, error) {
			return core.RunContext(ctx, s.built.Prog, core.Config{
				Analysis: core.DCSingle, Sched: s.sched(seed), Atomic: s.spec.Atomic, Telemetry: reg,
				WrapInst: s.plant})
		})
	if err != nil {
		return nil, err
	}
	if !out.OK {
		if f := out.LastFailure(); f != nil {
			return nil, f.Err
		}
		return nil, fmt.Errorf("trial failed")
	}
	if out.Seed != seed {
		return nil, fmt.Errorf("trial retried under seed %d", out.Seed)
	}
	return out.Value, nil
}

// verdictProblem compares a check's verdict (its blamed-method set) with
// the reference run's on the same program and seed, and requires a program
// without injected violations to report nothing. "" means agreement.
func verdictProblem(s *subject, mode string, seed int64, got, ref *core.Result) string {
	if got == nil || ref == nil {
		return fmt.Sprintf("%s seed %d: %s: no reference verdict", s.name, seed, mode)
	}
	return blamedProblem(s, mode, seed, got.BlamedMethodNames(s.built.Prog), ref.BlamedMethodNames(s.built.Prog))
}

// blamedProblem is verdictProblem over blamed-method names.
func blamedProblem(s *subject, mode string, seed int64, got, want []string) string {
	if !slices.Equal(got, want) {
		return fmt.Sprintf("%s seed %d: %s blamed %v, reference %v", s.name, seed, mode, got, want)
	}
	if len(s.built.RacyMethods) == 0 && len(got) > 0 {
		return fmt.Sprintf("%s seed %d: %s blamed %v in a clean program", s.name, seed, mode, got)
	}
	return ""
}

func names(ss []*subject) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.name
	}
	return out
}
