package doublechecker_test

import (
	"context"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"doublechecker/internal/core"
	"doublechecker/internal/cost"
	"doublechecker/internal/obs"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/trace"
)

// TestPhaseSpansFeedRegistryAndTrace pins the one-phase-span contract over
// the golden corpus: every phase boundary is one telemetry.Span that feeds
// both the registry totals and, under a live trace, the request's span
// tree. For each traced phase the trace holds exactly as many spans as the
// registry counted, all children of core.run, carrying only the attribute
// keys the phase documents; when metered, their cost_units sum to the
// registry's cost for the phase. pcd.blame and the pool shards' pcd.replay
// are registry-only: they must reach the registry but never the trace.
func TestPhaseSpansFeedRegistryAndTrace(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "traces", "*.dct"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus missing: %v", err)
	}
	// Attribute keys each traced phase may carry (cost_units is added to
	// every phase span of a metered run).
	attrKeys := map[string][]string{
		telemetry.SpanExecute:    {"vm.tx.ends"},
		telemetry.SpanICDSCC:     {"scc_txns"},
		telemetry.SpanICDGC:      nil,
		telemetry.SpanVeloGC:     nil,
		telemetry.SpanPCDReplay:  {"scc_txns"},
		telemetry.SpanPCDHandoff: {"entries", "scc_txns"},
		workerPrefix:             {"index", "scc_txns", "quarantined"},
	}
	configs := []struct {
		name string
		cfg  core.Config
	}{
		// A short GC period makes the corpus exercise icd.gc and velo.gc.
		{"serial", core.Config{Analysis: core.DCSingle, GCPeriod: 64}},
		{"pool", core.Config{Analysis: core.DCSingle, GCPeriod: 64, PCDWorkers: 4}},
		{"velodrome", core.Config{Analysis: core.Velodrome, GCPeriod: 64}},
	}
	traced := make(map[string]bool)       // phases seen in some trace
	registryOnly := make(map[string]bool) // registry-only phases seen
	for _, path := range paths {
		d, err := trace.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".dct")
		for _, c := range configs {
			for _, metered := range []bool{false, true} {
				cfg := c.cfg
				if metered {
					cfg.Meter = cost.NewMeter(cost.Default())
				}
				tr := obs.NewTrace(obs.TraceConfig{Name: "spantree"})
				res, err := core.RunTrace(obs.ContextWithSpan(context.Background(), tr.Root()), d, cfg)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, c.name, err)
				}
				tr.Finish()
				where := name + "/" + c.name
				if metered {
					where += "/metered"
				}

				var runID uint64
				spans := tr.Snapshot()
				for _, sp := range spans {
					if sp.Name == telemetry.SpanCoreRun {
						runID = sp.ID
					}
				}
				counts := make(map[string]uint64)
				costs := make(map[string]int64)
				for _, sp := range spans {
					allowed, phase := attrKeys[phaseOf(sp.Name)]
					if !phase {
						continue
					}
					counts[sp.Name]++
					if sp.Parent != runID {
						t.Errorf("%s: %s span is not a child of core.run", where, sp.Name)
					}
					for _, a := range sp.Attrs {
						if a.Key == "cost_units" && metered {
							costs[sp.Name] += a.Val.(int64)
							continue
						}
						if !slices.Contains(allowed, a.Key) {
							t.Errorf("%s: %s span carries unexpected attribute %q", where, sp.Name, a.Key)
						}
					}
				}
				pooled := cfg.PCDWorkers >= 2
				for phase, st := range res.Telemetry.Spans {
					if phase == telemetry.SpanPCDBlame || (pooled && phase == telemetry.SpanPCDReplay) {
						registryOnly[phase] = true
						if counts[phase] != 0 {
							t.Errorf("%s: registry-only %s reached the trace %d time(s)", where, phase, counts[phase])
						}
						continue
					}
					if counts[phase] != st.Count {
						t.Errorf("%s: %s: %d trace spans, registry counted %d", where, phase, counts[phase], st.Count)
					}
					if metered && costs[phase] != st.CostUnits {
						t.Errorf("%s: %s: trace cost_units sum %d, registry %d", where, phase, costs[phase], st.CostUnits)
					}
					if st.Count > 0 {
						traced[phaseOf(phase)] = true
					}
				}
				for phase := range counts {
					if _, ok := res.Telemetry.Spans[phase]; !ok {
						t.Errorf("%s: %s traced but absent from the registry", where, phase)
					}
				}
			}
		}
	}
	for phase := range attrKeys {
		if !traced[phase] {
			t.Errorf("corpus never exercised traced phase %s", phase)
		}
	}
	for _, phase := range []string{telemetry.SpanPCDBlame, telemetry.SpanPCDReplay} {
		if !registryOnly[phase] {
			t.Errorf("corpus never exercised registry-only phase %s", phase)
		}
	}
}

// workerPrefix stands for every pcd.pool.worker.N span.
const workerPrefix = telemetry.SpanPCDPoolWorker

// phaseOf folds the per-worker pool span names onto their common prefix.
func phaseOf(name string) string {
	if strings.HasPrefix(name, workerPrefix) {
		return workerPrefix
	}
	return name
}
