package pcd

import (
	"math/rand"
	"testing"

	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
)

// acyclicSCC builds an SCC whose precise dependence graph is acyclic:
// transactions run one at a time, each recording IDG edges from the last
// transaction to touch the objects it accesses.
func acyclicSCC(seed int64, txns int) []*txn.Txn {
	rng := rand.New(rand.NewSource(seed))
	e := newEnv()
	var all []*txn.Txn
	lastTouched := make(map[vm.ObjectID]*txn.Txn)
	for k := 0; k < txns; k++ {
		th := vm.ThreadID(rng.Intn(4))
		tx := e.begin(th, vm.MethodID(rng.Intn(3)+1))
		all = append(all, tx)
		for a := 0; a < 1+rng.Intn(6); a++ {
			obj := vm.ObjectID(rng.Intn(64) + 1)
			if prev := lastTouched[obj]; prev != nil && prev.Thread != th {
				e.edge(prev, tx)
			}
			e.access(th, obj, vm.FieldID(rng.Intn(4)), rng.Intn(3) == 0)
			lastTouched[obj] = tx
		}
		e.end(th)
	}
	return all
}

// racyIncrement builds the canonical two-transaction precise cycle.
func racyIncrement() []*txn.Txn {
	e := newEnv()
	a := e.begin(0, 1)
	b := e.begin(1, 2)
	e.access(0, 9, 0, false)
	e.access(1, 9, 0, false)
	e.edge(a, b)
	e.access(1, 9, 0, true)
	e.end(1)
	e.edge(b, a)
	e.access(0, 9, 0, true)
	e.end(0)
	return []*txn.Txn{a, b}
}

// TestReplayResetIsOTouched: after one very large replay, the scratch a
// small replay walks — its entry, node and field slices and the probed
// prefix of both hash tables — is bounded by the small replay's own size,
// not by the capacity the large one left behind.
func TestReplayResetIsOTouched(t *testing.T) {
	big := acyclicSCC(2, 5000)
	small := racyIncrement()
	c := NewChecker(nil, BySeq)
	c.Process(big)
	r := c.rs
	if r.intern.size() < 8192 || len(r.nodes) != len(big) {
		t.Fatalf("large replay did not grow the scratch: intern %d slots, %d nodes", r.intern.size(), len(r.nodes))
	}
	bigSlots := len(r.intern.slots)

	c.Process(small)
	entries := 0
	for _, tx := range small {
		entries += len(tx.Log)
	}
	want := entries + len(small)
	// Tables probe the smallest power of two >= 2*want (at least 16).
	limit := 16
	for limit < 2*want {
		limit <<= 1
	}
	if r.intern.size() > limit || r.edges.size() > limit {
		t.Errorf("small replay probes intern %d / edges %d slots, want <= %d", r.intern.size(), r.edges.size(), limit)
	}
	if len(r.refs) != entries || len(r.nodes) > 2*len(small) || len(r.fields) > entries || len(r.mem) != len(small) {
		t.Errorf("small replay walked refs %d nodes %d fields %d members %d; want <= its %d entries, %d txns",
			len(r.refs), len(r.nodes), len(r.fields), len(r.mem), entries, len(small))
	}
	if len(r.intern.slots) != bigSlots {
		t.Errorf("the small replay reallocated the table (%d slots, had %d)", len(r.intern.slots), bigSlots)
	}
}

// TestEdgeTableGrows: a replay can add more PDG edges than its table was
// first sized for; growth rehashes every edge and keeps their orders.
func TestEdgeTableGrows(t *testing.T) {
	r := &replay{}
	r.edges.reset(0)
	r.nodes = make([]node, 64)
	initial := r.edges.size()
	var want int
	for src := int32(0); src < 64; src++ {
		for dst := int32(0); dst < 64; dst += 7 {
			if r.addEdge(src, dst, uint64(src)*1000+uint64(dst)) {
				want++
			}
			if r.addEdge(src, dst, 1) {
				t.Fatalf("duplicate edge %d->%d added", src, dst)
			}
		}
	}
	if r.edges.size() <= initial || len(r.edgeList) != want {
		t.Fatalf("table %d slots (initial %d), %d edges (want %d)", r.edges.size(), initial, len(r.edgeList), want)
	}
	for src := int32(0); src < 64; src++ {
		for dst := int32(0); dst < 64; dst++ {
			o, ok := r.order(src, dst)
			if wantOK := dst%7 == 0 && src != dst; ok != wantOK || (ok && o != uint64(src)*1000+uint64(dst)) {
				t.Fatalf("order(%d,%d) = %d,%v", src, dst, o, ok)
			}
		}
	}
}
