package txn

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"doublechecker/internal/vm"
)

// loggingStream drives a Manager and the map-based reference with one
// random stream of accesses, transaction boundaries, cross-thread edges and
// thread exits, then requires identical log decisions: the LogEntries and
// LogElided counters and every transaction's Log.
func loggingStream(t *testing.T, name string, rng *rand.Rand, noElide bool) {
	threads := 1 + rng.Intn(12)
	objs := []int{1, 4, 64, 512}[rng.Intn(4)]
	fields := []int{1, 3, 8}[rng.Intn(3)]
	crossProb := []float64{0, 0.002, 0.02, 0.2}[rng.Intn(4)]
	txProb := []float64{0.001, 0.01, 0.1}[rng.Intn(3)]
	steps := 200 + rng.Intn(6000)
	if rng.Intn(5) == 0 {
		// Long windows over a large key space: one or two threads, rare
		// transaction boundaries and no edges, so a window collects
		// thousands of keys and the elision table grows repeatedly.
		threads, objs, fields, crossProb, txProb, steps = 1+rng.Intn(2), 1024, 8, 0, 0.0002, 20000
	}

	m := NewManager(true, nil, nil)
	ref := newRefManager(noElide)
	if noElide {
		m.DisableElision()
	}
	inTx := make([]bool, threads)
	var seq uint64
	for i := 0; i < steps; i++ {
		th := vm.ThreadID(rng.Intn(threads))
		switch p := rng.Float64(); {
		case p < txProb:
			if inTx[th] {
				m.EndRegular(th)
				ref.endRegular(th)
			} else {
				meth := vm.MethodID(rng.Intn(5))
				m.BeginRegular(th, meth)
				ref.beginRegular(th, meth)
			}
			inTx[th] = !inTx[th]
		case p < txProb+crossProb:
			other := vm.ThreadID(rng.Intn(threads))
			src, rsrc := m.EdgeSource(other), ref.current[other]
			m.AddCrossEdge(src, m.EdgeSink(th))
			ref.addCrossEdge(rsrc, ref.edgeSink(th))
		case p < txProb+crossProb+0.0005 && !inTx[th]:
			m.ThreadExit(th)
			ref.threadExit(th)
		default:
			seq++
			obj, field := vm.ObjectID(rng.Intn(objs)), vm.FieldID(rng.Intn(fields))
			write, sync := rng.Intn(3) == 0, rng.Intn(20) == 0
			m.Record(th, obj, field, write, sync, seq)
			ref.record(th, obj, field, write, sync, seq)
		}
	}

	st := m.Stats()
	if st.LogEntries != ref.entries || st.LogElided != ref.elided {
		t.Fatalf("%s: entries/elided %d/%d, reference %d/%d", name, st.LogEntries, st.LogElided, ref.entries, ref.elided)
	}
	all := m.All()
	if len(all) != len(ref.all) {
		t.Fatalf("%s: %d transactions, reference %d", name, len(all), len(ref.all))
	}
	for i, tx := range all {
		rt := ref.all[i]
		if tx.Thread != rt.thread || tx.Unary != rt.unary || tx.Method != rt.method {
			t.Fatalf("%s: txn %d is %v, reference t%d unary=%v m%d", name, i, tx, rt.thread, rt.unary, rt.method)
		}
		if !slices.Equal(tx.Log, rt.log) {
			t.Fatalf("%s: txn %d (%v) log\n got %v\nwant %v", name, i, tx, tx.Log, rt.log)
		}
	}
}

// TestElisionMatchesReference checks the per-thread elision tables and log
// slabs against the map-based reference on random streams.
func TestElisionMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		noElide := seed%10 == 9
		loggingStream(t, fmt.Sprintf("seed %d noElide=%v", seed, noElide), rand.New(rand.NewSource(seed)), noElide)
	}
}

// TestLogWriteOnce checks that a finished transaction's Log never changes
// as its thread keeps logging, across slab roll-overs (including one where
// a running transaction outgrows a whole slab), and that every Log is
// capped so a consumer's append cannot write into its neighbour's region.
func TestLogWriteOnce(t *testing.T) {
	m := NewManager(true, nil, nil)
	type kept struct {
		tx   *Txn
		log  []LogEntry // the slice handed out at finish
		copy []LogEntry // its contents at finish
	}
	var done []kept
	var seq uint64
	sizes := []int{1, 3, 17, 100, 5, 700, 2 * maxSlab, 1, 64, 3 * maxSlab, 9, 400, 400, 400}
	for i, n := range sizes {
		tx := m.BeginRegular(0, vm.MethodID(i))
		for j := 0; j < n; j++ {
			seq++
			m.Record(0, vm.ObjectID(j), 0, true, false, seq)
			if cap(tx.Log) != len(tx.Log) {
				t.Fatalf("txn %d: running log len %d cap %d", i, len(tx.Log), cap(tx.Log))
			}
		}
		m.EndRegular(0)
		if len(tx.Log) != n {
			t.Fatalf("txn %d: %d entries, want %d", i, len(tx.Log), n)
		}
		// A consumer appending to the finished log must get a copy.
		_ = append(tx.Log, LogEntry{Obj: -1, Seq: ^uint64(0)})
		done = append(done, kept{tx: tx, log: tx.Log, copy: slices.Clone(tx.Log)})
		for k, d := range done {
			if !slices.Equal(d.log, d.copy) || !slices.Equal(d.tx.Log, d.copy) {
				t.Fatalf("after txn %d: finished txn %d's log changed", i, k)
			}
		}
	}
}
