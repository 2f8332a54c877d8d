package icd_test

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"doublechecker/internal/core"
	"doublechecker/internal/crosscheck"
	"doublechecker/internal/icd"
	"doublechecker/internal/pcd"
	"doublechecker/internal/spec"
	"doublechecker/internal/trace"
	"doublechecker/internal/vm"
	"doublechecker/internal/workloads"
)

// namedTrace is one recorded execution of the test corpus.
type namedTrace struct {
	name string
	d    *trace.Data
}

// goldenTraces decodes the golden corpus.
func goldenTraces(t *testing.T) []namedTrace {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "traces", "*.dct"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden corpus missing: %v", err)
	}
	var out []namedTrace
	for _, path := range paths {
		d, err := trace.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedTrace{strings.TrimSuffix(filepath.Base(path), ".dct"), d})
	}
	return out
}

// generatedTraces records generated programs under each of scheds and
// seeds 1..seeds: the tiny corpus, random programs, and — the SCC-heavy
// part — the stress generators (sccmesh, sccring, sccweb) and xalan6's
// lock ping-pong, which additionally run under the sticky scheduler each
// is designed for.
func generatedTraces(t *testing.T, scheds []crosscheck.NamedScheduler, seeds int) []namedTrace {
	t.Helper()
	srcs, err := crosscheck.DefaultSources(2, 2, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	type source struct {
		src    crosscheck.Source
		scheds []crosscheck.NamedScheduler
	}
	var all []source
	for _, src := range srcs {
		all = append(all, source{src, scheds})
	}
	for _, name := range append(workloads.Stress(), "xalan6") {
		scale := 1.0
		if name == "xalan6" {
			scale = 0.3
		}
		b, err := workloads.Build(name, scale)
		if err != nil {
			t.Fatal(err)
		}
		sp := spec.Initial(b.Prog)
		if err := sp.ExcludeByName(b.InitialExclusions...); err != nil {
			t.Fatal(err)
		}
		stickiness := b.Stickiness
		designed := crosscheck.NamedScheduler{
			Name: fmt.Sprintf("sticky(%g)", stickiness),
			New:  func(seed int64) vm.Scheduler { return vm.NewSticky(seed, stickiness) },
		}
		all = append(all, source{crosscheck.Source{Name: name, Prog: b.Prog, Atomic: sp.Atomic}, append([]crosscheck.NamedScheduler{designed}, scheds...)})
	}
	var out []namedTrace
	for _, s := range all {
		for _, sched := range s.scheds {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				d, err := crosscheck.Record(context.Background(), s.src, seed, sched, 0)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, namedTrace{fmt.Sprintf("%s/%s/%d", s.src.Name, sched.Name, seed), d})
			}
		}
	}
	return out
}

func replay(t *testing.T, d *trace.Data, cfg core.Config) *core.Result {
	t.Helper()
	cfg.Analysis = core.DCSingle
	res, err := core.RunTrace(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PCDQuarantined) != 0 {
		t.Fatalf("quarantined SCCs: %v", res.PCDQuarantined)
	}
	return res
}

// TestHandOffTimingIndependence pins that what PCD reports is a function of
// the final SCCs alone, not of when ICD hands them off: the GC period (a
// collection every 64 accesses, the default, never) moves every hand-off,
// and the PCD worker count moves every replay, yet the rendered report, the
// violation signatures and PCD's counters stay identical, under both
// replay orders. Each transaction is replayed at most once.
func TestHandOffTimingIndependence(t *testing.T) {
	corpus := append(goldenTraces(t), generatedTraces(t, crosscheck.DefaultSchedulers()[:1], 2)...)
	for _, nt := range corpus {
		d := nt.d
		for _, order := range []pcd.ReplayOrder{pcd.BySeq, pcd.ByEdges} {
			ref := replay(t, d, core.Config{ReplayOrder: order})
			refReport := core.ReplayReport(nt.name, d, ref)
			refSigs := fmt.Sprint(core.ViolationSignatures(ref, d.Header.Program))
			if ref.PCD.TxnsProcessed != ref.PCD.DistinctTxns {
				t.Errorf("%s order=%d: PCD replayed %d transactions, %d distinct",
					nt.name, order, ref.PCD.TxnsProcessed, ref.PCD.DistinctTxns)
			}
			for _, gc := range []uint64{64, 0, 1 << 62} {
				for _, workers := range []int{0, 4} {
					res := replay(t, d, core.Config{ReplayOrder: order, GCPeriod: gc, PCDWorkers: workers})
					where := fmt.Sprintf("%s order=%d gc=%d workers=%d", nt.name, order, gc, workers)
					if got := core.ReplayReport(nt.name, d, res); got != refReport {
						t.Errorf("%s: report\n%s\nwant\n%s", where, got, refReport)
					}
					if got := fmt.Sprint(core.ViolationSignatures(res, d.Header.Program)); got != refSigs {
						t.Errorf("%s: signatures %s, want %s", where, got, refSigs)
					}
					if res.PCD != ref.PCD {
						t.Errorf("%s: pcd stats %+v, want %+v", where, res.PCD, ref.PCD)
					}
				}
			}
		}
	}
}

// TestFinalHandOffMatchesEveryGrowth checks the final-SCC hand-off against
// the hand-off it replaced, which replayed every SCC again each time it
// grew (icd.EveryGrowth): on the golden corpus, on every interleaving of
// the tiny corpus, and on a PCT sweep, both must blame the same methods
// and agree on whether there is any violation at all. Violation counts may
// differ — the growth stages can thread extra distinct cycles through the
// same transactions.
func TestFinalHandOffMatchesEveryGrowth(t *testing.T) {
	everyGrowth := core.Config{WrapInst: func(inst vm.Instrumentation) vm.Instrumentation {
		return icd.EveryGrowth(inst.(*icd.Checker))
	}}
	check := func(name string, d *trace.Data) {
		t.Helper()
		final := replay(t, d, core.Config{})
		old := replay(t, d, everyGrowth)
		prog := d.Header.Program
		if a, b := fmt.Sprint(final.BlamedMethodNames(prog)), fmt.Sprint(old.BlamedMethodNames(prog)); a != b {
			t.Errorf("%s: final hand-off blames %s, every-growth hand-off %s", name, a, b)
		}
		if (len(final.Violations) > 0) != (len(old.Violations) > 0) {
			t.Errorf("%s: final hand-off found %d violations, every-growth hand-off %d",
				name, len(final.Violations), len(old.Violations))
		}
		if old.PCD.TxnsProcessed < final.PCD.TxnsProcessed {
			t.Errorf("%s: every-growth hand-off replayed %d transactions, fewer than the final hand-off's %d",
				name, old.PCD.TxnsProcessed, final.PCD.TxnsProcessed)
		}
	}

	for _, nt := range goldenTraces(t) {
		check(nt.name, nt.d)
	}

	for _, tp := range workloads.Tiny() {
		src := crosscheck.Source{Name: tp.Name, Prog: tp.Prog, Atomic: tp.Atomic}
		en := vm.NewEnumerator(64)
		sched := crosscheck.NamedScheduler{Name: "enumerate", New: func(int64) vm.Scheduler { return en }}
		for {
			d, err := crosscheck.Record(context.Background(), src, 0, sched, 0)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s/interleaving %d", tp.Name, en.Runs()), d)
			if !en.Advance() {
				break
			}
		}
		if en.Overflowed() {
			t.Errorf("%s: enumeration truncated", tp.Name)
		}
	}

	pct := crosscheck.DefaultSchedulers()[2:]
	for _, nt := range generatedTraces(t, pct, 3) {
		check(nt.name, nt.d)
	}
}
