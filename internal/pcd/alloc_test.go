//go:build !race

// AllocsPerRun needs the non-race runtime, so this file is excluded under
// -race.

package pcd

import (
	"testing"

	"doublechecker/internal/cost"
)

// TestPCDReplayAllocs pins the dense replay's allocation budget: once a
// Checker's scratch has grown to an SCC's size, replaying it again costs
// nothing, and a new precise cycle costs only the Find and Violation that
// report it.
func TestPCDReplayAllocs(t *testing.T) {
	t.Run("acyclic re-report", func(t *testing.T) {
		scc := acyclicSCC(1, 200)
		c := NewChecker(cost.NewMeter(cost.Default()), BySeq)
		c.Process(scc) // warm-up: grows the scratch
		if c.Stats().PDGEdges == 0 {
			t.Fatal("fixture has no precise edges")
		}
		if got := testing.AllocsPerRun(50, func() { c.Process(scc) }); got != 0 {
			t.Errorf("re-processing an acyclic SCC allocated %.1f times, want 0", got)
		}
		if len(c.Violations()) != 0 {
			t.Fatalf("acyclic fixture reported %d violations", len(c.Violations()))
		}
	})

	t.Run("deferred new cycle", func(t *testing.T) {
		scc := racyIncrement()
		c := NewShard(nil, BySeq)
		c.Process(scc)
		f := c.TakeFinds()
		if len(f) != 1 {
			t.Fatalf("finds = %d, want 1", len(f))
		}
		// The Find's three slices plus the finds list that holds it.
		const budget = 4
		got := testing.AllocsPerRun(50, func() {
			c.Process(scc)
			c.TakeFinds()
		})
		if got > budget {
			t.Errorf("a new cycle in deferred mode allocated %.1f times, want <= %d", got, budget)
		}
	})

	t.Run("serial new cycle", func(t *testing.T) {
		scc := racyIncrement()
		c := NewChecker(nil, BySeq)
		found := c.Process(scc)
		if len(found) != 1 {
			t.Fatalf("violations = %d, want 1", len(found))
		}
		f := Find{Cycle: found[0].Cycle, Seq: found[0].Seq, Out: []uint64{0, 0}, OutOK: []bool{true, true}}
		blame := testing.AllocsPerRun(50, func() { f.Violation() })
		// The Find (3 slices), its Violation, the dedup key's string, and
		// the returned slice. Forgetting the cycle between runs makes it new
		// again.
		budget := 3 + blame + 2
		got := testing.AllocsPerRun(50, func() {
			clear(c.cycles.seen)
			c.violations = c.violations[:0]
			c.Process(scc)
		})
		if got > budget {
			t.Errorf("a new cycle allocated %.1f times, want <= %.1f", got, budget)
		}
		// A re-reported cycle is deduplicated without allocating.
		if got := testing.AllocsPerRun(50, func() { c.Process(scc) }); got != 0 {
			t.Errorf("re-reporting a known cycle allocated %.1f times, want 0", got)
		}
	})
}
