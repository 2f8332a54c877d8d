//go:build !race

package icd

import (
	"testing"

	"doublechecker/internal/cost"
	"doublechecker/internal/vm"
)

// fakeExec is a minimal ExecView for driving a Checker directly (no VM):
// every thread is unblocked and non-transactional, and the clock is a
// counter. That keeps the alloc budgets below about the checker alone.
type fakeExec struct{ now uint64 }

func (f *fakeExec) Now() uint64                      { f.now++; return f.now }
func (f *fakeExec) Blocked(vm.ThreadID) bool         { return false }
func (f *fakeExec) InTx(vm.ThreadID) bool            { return false }
func (f *fakeExec) TxMethod(vm.ThreadID) vm.MethodID { return vm.NoMethod }

// TestICDHotPathAllocs pins the allocation discipline of the multi-run first
// run (no logging, no SCC handoff): with transaction recycling, slice-backed
// octet state, and the incremental engine's free lists warmed up, the
// steady-state per-access paths must not allocate at all.
//
// The budgets are exact (0 allocs/op); the test is excluded under -race,
// whose instrumentation allocates.
func TestICDHotPathAllocs(t *testing.T) {
	b := vm.NewBuilder("allocs")
	for i := 0; i < 4; i++ {
		b.Object()
	}
	o := b.Object()
	m := b.Method("spin")
	m.Read(o, 0)
	b.Thread(m)
	b.Thread(m)
	prog := b.MustBuild()

	// Octet fast path: repeated same-owner reads (WrEx/RdEx hit, no
	// transition, no log).
	t.Run("octet-fast-path", func(t *testing.T) {
		c := NewChecker(prog, cost.NewMeter(cost.Default()), Options{GCPeriod: 1 << 30})
		c.ProgramStart(&fakeExec{})
		c.ThreadStart(0)
		var seq uint64
		access := func(th vm.ThreadID, obj vm.ObjectID, write bool) {
			seq++
			c.Access(vm.Access{Thread: th, Obj: obj, Write: write, Class: vm.ClassField, Seq: seq})
		}
		for i := 0; i < 64; i++ { // warm up: claim objects, grow state tables
			access(0, vm.ObjectID(i%4), true)
		}
		if n := testing.AllocsPerRun(200, func() { access(0, 0, false) }); n != 0 {
			t.Errorf("octet fast path: %v allocs/op, want 0", n)
		}
	})

	// IDG edge-insert path: a two-thread write ping-pong drives a conflicting
	// transition (edge + fresh unary sink + engine insertion) at every
	// access, and periodic GC recycles the retired chain. After warm-up the
	// whole loop — barriers, edges, transaction churn, engine maintenance,
	// collection — must run out of free lists.
	t.Run("idg-edge-insert", func(t *testing.T) {
		c := NewChecker(prog, cost.NewMeter(cost.Default()), Options{GCPeriod: 256})
		c.ProgramStart(&fakeExec{})
		c.ThreadStart(0)
		c.ThreadStart(1)
		var seq uint64
		write := func(th vm.ThreadID) {
			seq++
			c.Access(vm.Access{Thread: th, Obj: 0, Write: true, Class: vm.ClassField, Seq: seq})
		}
		round := func() {
			for i := 0; i < 512; i++ { // crosses the GC period twice per round
				write(vm.ThreadID(i % 2))
			}
		}
		for i := 0; i < 4; i++ {
			round() // warm up free lists, scratch buffers, engine slots
		}
		if n := testing.AllocsPerRun(10, round); n != 0 {
			t.Errorf("edge-insert round: %v allocs (512 accesses + 2 GCs), want 0", n)
		}
	})

	// Repeated-dependence path: the same cross-thread edge re-observed
	// (dedup hit) must not allocate either.
	t.Run("edge-dedup", func(t *testing.T) {
		c := NewChecker(prog, cost.NewMeter(cost.Default()), Options{GCPeriod: 1 << 30})
		c.ProgramStart(&fakeExec{})
		c.ThreadStart(0)
		c.ThreadStart(1)
		var seq uint64
		read := func(th vm.ThreadID, obj vm.ObjectID) {
			seq++
			c.Access(vm.Access{Thread: th, Obj: obj, Write: false, Class: vm.ClassField, Seq: seq})
		}
		read(0, 0) // RdEx_0
		read(1, 0) // upgrade to RdSh
		for i := 0; i < 64; i++ {
			read(0, 0)
			read(1, 0)
		}
		if n := testing.AllocsPerRun(200, func() { read(0, 0); read(1, 0) }); n != 0 {
			t.Errorf("dedup path: %v allocs/op, want 0", n)
		}
	})
}

// TestICDLoggingAllocs pins the allocation discipline of the logging path
// (single-run mode and the second run of multi-run mode): repeat accesses
// that elision drops must not allocate, and appends to the per-thread log
// slabs must amortize to a few allocations per thousand entries once the
// slabs and elision tables are warm.
//
// The test is excluded under -race, whose instrumentation allocates.
func TestICDLoggingAllocs(t *testing.T) {
	b := vm.NewBuilder("logallocs")
	objs := make([]vm.ObjectID, 64)
	for i := range objs {
		objs[i] = b.Object()
	}
	m := b.Method("spin")
	m.Read(objs[0], 0)
	b.Thread(m)
	prog := b.MustBuild()

	newChecker := func() (*Checker, func(obj vm.ObjectID, field vm.FieldID, write bool)) {
		c := NewChecker(prog, cost.NewMeter(cost.Default()), Options{Logging: true, GCPeriod: 1 << 30})
		c.ProgramStart(&fakeExec{})
		c.ThreadStart(0)
		var seq uint64
		return c, func(obj vm.ObjectID, field vm.FieldID, write bool) {
			seq++
			c.Access(vm.Access{Thread: 0, Obj: obj, Field: field, Write: write, Class: vm.ClassField, Seq: seq})
		}
	}

	// Elided repeats: the same read and write again within one window.
	t.Run("elided-repeat", func(t *testing.T) {
		c, access := newChecker()
		access(objs[0], 0, true)
		access(objs[1], 2, false)
		if n := testing.AllocsPerRun(200, func() {
			access(objs[0], 0, false)
			access(objs[0], 0, true)
			access(objs[1], 2, false)
		}); n != 0 {
			t.Errorf("elided repeats: %v allocs/op, want 0", n)
		}
		if st := c.TxnStats(); st.LogEntries != 2 {
			t.Errorf("log entries = %d, want 2 (every repeat elided)", st.LogEntries)
		}
	})

	// Appends: each round is one regular transaction logging 1000 distinct
	// fields. Besides one or two log slabs a round allocates its
	// transaction node and the program-order edge with its adjacency in
	// the manager and the SCC engine; the budget covers those plus the
	// amortized growth of both's tables.
	t.Run("log-append", func(t *testing.T) {
		const entries, budget = 1000, 10
		c, access := newChecker()
		round := func() {
			c.TxBegin(0, 0)
			for i := 0; i < entries; i++ {
				access(objs[i%len(objs)], vm.FieldID(i/len(objs)), i%3 == 0)
			}
			c.TxEnd(0, 0)
		}
		for i := 0; i < 4; i++ {
			round() // warm up: slabs at full size, elision table grown
		}
		before := c.TxnStats().LogEntries
		n := testing.AllocsPerRun(20, round)
		if logged := (c.TxnStats().LogEntries - before) / 21; logged != entries {
			t.Fatalf("logged %d entries per round, want %d", logged, entries)
		}
		if n > budget {
			t.Errorf("log appends: %v allocs per %d entries, want <= %d", n, entries, budget)
		}
	})
}
