package txn

import "doublechecker/internal/vm"

// This file keeps the original map-based duplicate elision as a test oracle
// for the per-thread elision tables and log slabs: per-(field, thread)
// lastAccess records in a map of maps, per-thread timestamps and current
// transactions in maps, and one append-grown log per transaction. It
// mirrors the manager's transaction lifecycle only as far as logging
// depends on it (which transaction an access lands in, and when a thread's
// elision window ends). refManager must log and elide exactly what Manager
// does on every stream.

// fieldKey identifies a field for elision metadata.
type fieldKey struct {
	obj   vm.ObjectID
	field vm.FieldID
}

// lastAccess is the per-(field, thread) elision timestamp.
type lastAccess struct {
	ts    uint64
	wrote bool
}

type refTxn struct {
	thread      vm.ThreadID
	method      vm.MethodID
	unary       bool
	finished    bool
	interrupted bool
	accesses    int
	log         []LogEntry
}

type refManager struct {
	noElide  bool
	current  map[vm.ThreadID]*refTxn
	all      []*refTxn
	elide    map[fieldKey]map[vm.ThreadID]*lastAccess
	threadTS map[vm.ThreadID]uint64
	entries  uint64
	elided   uint64
}

func newRefManager(noElide bool) *refManager {
	return &refManager{
		noElide:  noElide,
		current:  make(map[vm.ThreadID]*refTxn),
		elide:    make(map[fieldKey]map[vm.ThreadID]*lastAccess),
		threadTS: make(map[vm.ThreadID]uint64),
	}
}

func (r *refManager) newTxn(t vm.ThreadID, method vm.MethodID, unary bool) *refTxn {
	tx := &refTxn{thread: t, method: method, unary: unary}
	r.all = append(r.all, tx)
	r.threadTS[t]++
	return tx
}

func (r *refManager) beginRegular(t vm.ThreadID, meth vm.MethodID) {
	prev := r.current[t]
	tx := r.newTxn(t, meth, false)
	if prev != nil && prev.unary {
		prev.finished = true
	}
	r.current[t] = tx
}

func (r *refManager) endRegular(t vm.ThreadID) { r.current[t].finished = true }

func (r *refManager) threadExit(t vm.ThreadID) {
	if tx := r.current[t]; tx != nil {
		tx.finished = true
	}
}

func (r *refManager) cur(t vm.ThreadID) *refTxn {
	tx := r.current[t]
	switch {
	case tx == nil:
		tx = r.newTxn(t, vm.NoMethod, true)
		r.current[t] = tx
	case tx.finished || (tx.unary && tx.interrupted):
		prev := tx
		tx = r.newTxn(t, vm.NoMethod, true)
		if prev.unary {
			prev.finished = true
		}
		r.current[t] = tx
	}
	return tx
}

func (r *refManager) edgeSink(t vm.ThreadID) *refTxn {
	cur := r.cur(t)
	if !cur.unary || cur.accesses == 0 {
		return cur
	}
	fresh := r.newTxn(t, vm.NoMethod, true)
	cur.finished = true
	r.current[t] = fresh
	return fresh
}

func (r *refManager) addCrossEdge(src, dst *refTxn) {
	if src == nil || dst == nil || src == dst {
		return
	}
	for _, tx := range []*refTxn{src, dst} {
		if r.current[tx.thread] == tx {
			r.threadTS[tx.thread]++
		}
		if tx.unary {
			tx.interrupted = true
		}
	}
}

func (r *refManager) record(t vm.ThreadID, obj vm.ObjectID, field vm.FieldID, write, sync bool, seq uint64) {
	tx := r.cur(t)
	tx.accesses++
	entry := LogEntry{Obj: obj, Field: field, Write: write, Sync: sync, Seq: seq}
	if r.noElide {
		tx.log = append(tx.log, entry)
		r.entries++
		return
	}
	key := fieldKey{obj, field}
	perThread := r.elide[key]
	if perThread == nil {
		perThread = make(map[vm.ThreadID]*lastAccess)
		r.elide[key] = perThread
	}
	la := perThread[t]
	cur := r.threadTS[t]
	if la != nil && la.ts == cur && (!write || la.wrote) {
		r.elided++
		return
	}
	if la == nil {
		la = &lastAccess{}
		perThread[t] = la
	}
	if la.ts == cur {
		la.wrote = la.wrote || write
	} else {
		la.wrote = write
	}
	la.ts = cur
	tx.log = append(tx.log, entry)
	r.entries++
}
