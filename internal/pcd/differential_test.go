package pcd

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"doublechecker/internal/cost"
	"doublechecker/internal/icd"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/trace"
	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
)

// The differential test feeds identical SCC streams to the dense replay
// (Process) and the map-based reference (processReference, in
// reference_test.go) and requires identical outputs: returned and
// accumulated violations, deferred finds, Stats, the cost meter's report
// and the deterministic telemetry snapshot.

type replayFn func(c *Checker, scc []*txn.Txn) []txn.Violation

func denseReplay(c *Checker, scc []*txn.Txn) []txn.Violation { return c.Process(scc) }
func refReplay(c *Checker, scc []*txn.Txn) []txn.Violation   { return c.processReference(scc) }

// replayRun is one engine's checker plus everything it produced.
type replayRun struct {
	fn    replayFn
	c     *Checker
	meter *cost.Meter
	reg   *telemetry.Registry
	found []string // per-Process returned violations
	finds []string // deferred-mode finds, in discovery order
}

func newReplayRun(fn replayFn, deferred bool, order ReplayOrder) *replayRun {
	r := &replayRun{fn: fn, meter: cost.NewMeter(cost.Default()), reg: telemetry.NewRegistry()}
	if deferred {
		r.c = NewShard(r.meter, order)
	} else {
		r.c = NewChecker(r.meter, order)
	}
	r.c.SetTelemetry(r.reg)
	return r
}

func (r *replayRun) process(scc []*txn.Txn) {
	found := r.fn(r.c, scc)
	keys := make([]string, len(found))
	for i, v := range found {
		keys[i] = exactViolationKey(v)
	}
	r.found = append(r.found, strings.Join(keys, " | "))
	for _, f := range r.c.TakeFinds() {
		r.finds = append(r.finds, findKey(f))
	}
}

// txnKey renders every transaction field a report can show, so a cut
// segment built by the dense replay must match the reference's exactly.
func txnKey(tx *txn.Txn) string {
	return fmt.Sprintf("%d/t%d/m%d/u%v/s%d/f%v", tx.ID, tx.Thread, tx.Method, tx.Unary, tx.StartSeq, tx.Finished)
}

func txnsKey(txs []*txn.Txn) string {
	parts := make([]string, len(txs))
	for i, tx := range txs {
		parts[i] = txnKey(tx)
	}
	return strings.Join(parts, ",")
}

// exactViolationKey is order-sensitive: cycle and blame order included.
func exactViolationKey(v txn.Violation) string {
	return fmt.Sprintf("cycle=[%s] seq=%d blamed=[%s] methods=%v", txnsKey(v.Cycle), v.Seq, txnsKey(v.Blamed), v.BlamedMethods)
}

func findKey(f Find) string {
	return fmt.Sprintf("cycle=[%s] seq=%d out=%v ok=%v", txnsKey(f.Cycle), f.Seq, f.Out, f.OutOK)
}

func compareReplayRuns(t *testing.T, name string, got, want *replayRun) {
	t.Helper()
	eqStrings := func(what string, g, w []string) {
		t.Helper()
		if len(g) != len(w) {
			t.Fatalf("%s: %s: dense %d, reference %d", name, what, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: %s %d:\n dense     %s\n reference %s", name, what, i, g[i], w[i])
			}
		}
	}
	eqStrings("returned violations", got.found, want.found)
	eqStrings("finds", got.finds, want.finds)
	gv, wv := got.c.Violations(), want.c.Violations()
	gk, wk := make([]string, len(gv)), make([]string, len(wv))
	for i := range gv {
		gk[i] = exactViolationKey(gv[i])
	}
	for i := range wv {
		wk[i] = exactViolationKey(wv[i])
	}
	eqStrings("violations", gk, wk)
	if got.c.Stats() != want.c.Stats() {
		t.Fatalf("%s: stats dense %+v, reference %+v", name, got.c.Stats(), want.c.Stats())
	}
	if got.meter.Report() != want.meter.Report() {
		t.Fatalf("%s: meter dense %+v, reference %+v", name, got.meter.Report(), want.meter.Report())
	}
	gj := got.reg.Snapshot().Deterministic().JSON()
	wj := want.reg.Snapshot().Deterministic().JSON()
	if !bytes.Equal(gj, wj) {
		t.Fatalf("%s: telemetry differs:\n dense     %s\n reference %s", name, gj, wj)
	}
}

// diffStream replays groups through both engines in every order and mode.
func diffStream(t *testing.T, name string, groups [][]*txn.Txn) {
	t.Helper()
	for _, order := range []ReplayOrder{BySeq, ByEdges} {
		for _, deferred := range []bool{false, true} {
			dense := newReplayRun(denseReplay, deferred, order)
			ref := newReplayRun(refReplay, deferred, order)
			for _, g := range groups {
				dense.process(g)
				ref.process(g)
			}
			compareReplayRuns(t, fmt.Sprintf("%s order=%d deferred=%v", name, order, deferred), dense, ref)
		}
	}
}

// randomSCCStream builds a synthetic ICD session with regular and merged
// unary transactions, data and sync accesses, and random cross-thread IDG
// edges, and returns SCC groups over it: sliding windows that overlap (so
// dedup and re-reports are exercised) plus the whole session.
func randomSCCStream(rng *rand.Rand) [][]*txn.Txn {
	e := newEnv()
	nThreads := 2 + rng.Intn(4)
	nObjs := 1 + rng.Intn(4)
	active := make(map[vm.ThreadID]bool)
	steps := 20 + rng.Intn(200)
	for s := 0; s < steps; s++ {
		th := vm.ThreadID(rng.Intn(nThreads))
		switch k := rng.Intn(12); {
		case k == 0:
			if !active[th] {
				e.begin(th, vm.MethodID(rng.Intn(4)+1))
				active[th] = true
			}
		case k == 1:
			if active[th] {
				e.end(th)
				active[th] = false
			}
		case k <= 3:
			other := vm.ThreadID(rng.Intn(nThreads))
			if other != th {
				src, dst := e.mgr.Current(th), e.mgr.Current(other)
				if all := e.mgr.All(); rng.Intn(2) == 0 && len(all) > 0 {
					src = all[rng.Intn(len(all))]
				}
				if src != dst && src.Thread != dst.Thread {
					e.edge(src, dst)
				}
			}
		case k == 4:
			e.now++
			e.mgr.Record(th, vm.ObjectID(rng.Intn(nObjs)+1), 0, rng.Intn(2) == 0, true, e.now)
		default:
			e.access(th, vm.ObjectID(rng.Intn(nObjs)+1), vm.FieldID(rng.Intn(3)), rng.Intn(2) == 0)
		}
	}
	for th := range active {
		if active[th] {
			e.end(th)
		}
	}
	all := e.mgr.All()
	var groups [][]*txn.Txn
	for start := 0; start < len(all); start += 1 + rng.Intn(4) {
		end := start + 1 + rng.Intn(8)
		if end > len(all) {
			end = len(all)
		}
		groups = append(groups, all[start:end])
	}
	return append(groups, all)
}

func TestDenseReplayMatchesReferenceRandom(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		groups := randomSCCStream(rand.New(rand.NewSource(seed)))
		diffStream(t, fmt.Sprintf("seed %d", seed), groups)
	}
}

// TestDenseReplayMatchesReferenceGolden replays every golden-corpus trace
// through ICD and hands each reported SCC to both engines at discovery,
// while the logs are live, exactly as the single-run checker does. The
// trace's whole execution is then replayed as one giant SCC — the PCD-only
// straw man — which also leaves the dense scratch at its largest before
// the next trace.
func TestDenseReplayMatchesReferenceGolden(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/traces/*.dct")
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden corpus: %v (%d traces)", err, len(paths))
	}
	for _, order := range []ReplayOrder{BySeq, ByEdges} {
		for _, deferred := range []bool{false, true} {
			dense := newReplayRun(denseReplay, deferred, order)
			ref := newReplayRun(refReplay, deferred, order)
			for _, path := range paths {
				d, err := trace.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				ic := icd.NewChecker(d.Header.Program, nil, icd.Options{
					Logging:  true,
					GCPeriod: 1 << 62,
					OnSCC: func(scc []*txn.Txn) {
						dense.process(scc)
						ref.process(scc)
					},
				})
				if err := trace.Replay(context.Background(), d, ic); err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				all := ic.Manager().All()
				dense.process(all)
				ref.process(all)
				compareReplayRuns(t, fmt.Sprintf("%s order=%d deferred=%v", filepath.Base(path), order, deferred), dense, ref)
			}
		}
	}
}
