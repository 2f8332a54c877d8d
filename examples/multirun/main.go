// Multirun: demonstrates DoubleChecker's multi-run mode end to end on the
// tsp workload — ten cheap first runs (ICD only, no logging) produce the
// static transaction information, one second run (ICD+PCD, filtered)
// confirms the violations — and compares the modelled cost of every
// configuration, reproducing the paper's headline performance claims in
// miniature.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"doublechecker/internal/core"
	"doublechecker/internal/cost"
	"doublechecker/internal/spec"
	"doublechecker/internal/vm"
	"doublechecker/internal/workloads"
)

func main() {
	built, err := workloads.Build("tsp", 0.5)
	if err != nil {
		log.Fatal(err)
	}
	prog := built.Prog
	sp := spec.Initial(prog)
	if err := sp.ExcludeByName(built.InitialExclusions...); err != nil {
		log.Fatal(err)
	}

	// Ten first runs (schedule seeds 0..9) run concurrently as one ensemble;
	// the union of their static information filters the second run (seed 99).
	fmt.Println("== multi-run mode: first runs (ICD only, no logging) ==")
	o, err := core.MultiRunContext(context.Background(), prog, sp.Atomic, 10, 0, 99)
	if err != nil {
		log.Fatal(err)
	}
	filter := core.UnionFilter(o.Firsts)
	fmt.Printf("union of %d first runs: %d method(s) implicated, unary accesses implicated: %v\n",
		len(o.Firsts), len(filter.Methods), filter.Unary)
	var monitored []string
	for m := range filter.Methods {
		monitored = append(monitored, prog.MethodName(m))
	}
	sort.Strings(monitored)
	for _, name := range monitored {
		fmt.Printf("  monitored in second run: %s\n", name)
	}

	fmt.Println("\n== second run (ICD+PCD on the filtered subset) ==")
	fmt.Printf("second run: %d violations, blamed %v\n",
		len(o.Second.Violations), o.Second.BlamedMethodNames(prog))

	fmt.Println("\n== modelled cost of each configuration (same schedule) ==")
	for _, a := range []core.Analysis{
		core.Velodrome, core.DCSingle, core.DCFirst, core.DCSecond,
	} {
		base := cost.NewMeter(cost.Default())
		if _, err := core.Run(prog, core.Config{
			Analysis: core.Baseline, Sched: vm.NewSticky(7, built.Stickiness),
			Atomic: sp.Atomic, Meter: base,
		}); err != nil {
			log.Fatal(err)
		}
		meter := cost.NewMeter(cost.Default())
		cfg := core.Config{
			Analysis: a, Sched: vm.NewSticky(7, built.Stickiness),
			Atomic: sp.Atomic, Meter: meter,
		}
		if a == core.DCSecond {
			cfg.Filter = filter
		}
		if _, err := core.Run(prog, cfg); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22v %.2fx normalized execution time\n", a, meter.Report().Normalized(base.Total()))
	}
	fmt.Println("\nThe first run is the cheapest (no logging), the second run beats")
	fmt.Println("single-run mode (filtered instrumentation), and every DoubleChecker")
	fmt.Println("configuration beats Velodrome — the paper's Figure 7 in miniature.")
}
