package pcd

import (
	"fmt"
	"sort"

	"doublechecker/internal/graph"
	"doublechecker/internal/obs"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
)

// This file keeps the original map-based PCD replay as a test oracle for
// the dense one in pcd.go: per-field metadata in maps keyed by
// (object, field, sync), a PDG built as maps of maps, readers sorted per
// write, and cycle search through graph.FindPath. processReference must
// produce exactly what Process produces — violations, finds, Stats, meter
// charges and telemetry — on every input.

// entryRef locates one log entry during reference replay.
type entryRef struct {
	tx  *txn.Txn
	idx int
}

// fieldKey is the reference replay's per-field metadata key.
type fieldKey struct {
	obj   vm.ObjectID
	field vm.FieldID
	sync  bool
}

// pdg is the reference precise dependence graph over one replay.
type pdg struct {
	adj   map[*txn.Txn]map[*txn.Txn]uint64 // -> edge order (first occurrence)
	succs map[*txn.Txn][]*txn.Txn
}

func newPDG() *pdg {
	return &pdg{
		adj:   make(map[*txn.Txn]map[*txn.Txn]uint64),
		succs: make(map[*txn.Txn][]*txn.Txn),
	}
}

// add inserts an edge with the given order if absent; reports whether it was
// new.
func (g *pdg) add(src, dst *txn.Txn, order uint64) bool {
	if src == dst {
		return false
	}
	m := g.adj[src]
	if m == nil {
		m = make(map[*txn.Txn]uint64)
		g.adj[src] = m
	}
	if _, ok := m[dst]; ok {
		return false
	}
	m[dst] = order
	g.succs[src] = append(g.succs[src], dst)
	return true
}

func (g *pdg) order(src, dst *txn.Txn) (uint64, bool) {
	o, ok := g.adj[src][dst]
	return o, ok
}

// refSegState tracks the current PDG node of one replayed transaction.
type refSegState struct {
	node  *txn.Txn
	count int
	idx   int
}

// processReference is the original map-based Process.
func (c *Checker) processReference(scc []*txn.Txn) []txn.Violation {
	c.stats.SCCsProcessed++
	c.stats.TxnsProcessed += uint64(len(scc))
	var span telemetry.Span
	if c.tel != nil {
		span = c.tel.reg.StartSpan(obs.Span{}, telemetry.SpanPCDReplay, c.meter)
		defer span.End()
		c.tel.sccs.Inc()
		c.tel.txns.Add(uint64(len(scc)))
	}
	for _, tx := range scc {
		if c.seenTxns != nil {
			if _, ok := c.seenTxns[tx.ID]; !ok {
				c.seenTxns[tx.ID] = struct{}{}
				c.stats.DistinctTxns++
				if c.tel != nil {
					c.tel.txnsSent.Inc()
				}
			}
		}
	}

	var entries []entryRef
	switch c.order {
	case ByEdges:
		for _, r := range orderByEdges(scc, nil) {
			entries = append(entries, entryRef{scc[r.member], int(r.idx)})
		}
	default:
		entries = orderBySeq(scc)
	}

	c.tempBytes = 0
	defer func() {
		if c.meter != nil {
			c.meter.Free(c.tempBytes)
		}
		c.tempBytes = 0
	}()
	c.tempAlloc(24 * int64(len(entries)))

	g := newPDG()
	segs := make(map[*txn.Txn]*refSegState, len(scc))
	seg := func(tx *txn.Txn) *refSegState {
		st := segs[tx]
		if st == nil {
			st = &refSegState{node: tx}
			segs[tx] = st
		}
		return st
	}
	threadChain := make(map[vm.ThreadID]*txn.Txn)
	lastWrite := make(map[fieldKey]*txn.Txn)
	lastReads := make(map[fieldKey]map[vm.ThreadID]*txn.Txn)

	model := c.model()
	var found []txn.Violation
	for _, ref := range entries {
		e := ref.tx.Log[ref.idx]
		c.stats.EntriesReplayed++
		c.charge(model.PCDPerEntry)
		key := fieldKey{obj: e.Obj, field: e.Field, sync: e.Sync}
		st := seg(ref.tx)

		incoming := false
		if w := lastWrite[key]; w != nil && w.Thread != ref.tx.Thread {
			incoming = true
		}
		if e.Write && !incoming {
			for t := range lastReads[key] {
				if t != ref.tx.Thread {
					incoming = true
					break
				}
			}
		}
		if incoming && ref.tx.Unary && st.count > 0 {
			st.idx++
			fresh := &txn.Txn{
				ID:       ref.tx.ID<<16 | uint64(st.idx),
				Thread:   ref.tx.Thread,
				Method:   ref.tx.Method,
				Unary:    true,
				StartSeq: e.Seq,
				Finished: true,
			}
			g.add(st.node, fresh, e.Seq)
			st.node = fresh
			st.count = 0
		}
		cur := st.node

		if prev := threadChain[ref.tx.Thread]; prev != nil && prev != cur {
			g.add(prev, cur, e.Seq)
		}
		threadChain[ref.tx.Thread] = cur

		if e.Write {
			if w := lastWrite[key]; w != nil && w.Thread != cur.Thread {
				found = c.refAddPDGEdge(g, w, cur, e.Seq, found)
			}
			for _, t := range sortedThreads(lastReads[key]) {
				if t != cur.Thread {
					found = c.refAddPDGEdge(g, lastReads[key][t], cur, e.Seq, found)
				}
			}
			lastWrite[key] = cur
			delete(lastReads, key)
		} else {
			if w := lastWrite[key]; w != nil && w.Thread != cur.Thread {
				found = c.refAddPDGEdge(g, w, cur, e.Seq, found)
			}
			m := lastReads[key]
			if m == nil {
				m = make(map[vm.ThreadID]*txn.Txn)
				lastReads[key] = m
			}
			m[cur.Thread] = cur
		}
		st.count++
	}
	if c.tel != nil {
		c.tel.entries.Add(uint64(len(entries)))
		c.tel.fieldMap.Observe(uint64(len(lastWrite) + len(lastReads)))
	}
	return found
}

// refAddPDGEdge inserts a precise dependence edge and checks for a cycle
// through it with graph.FindPath.
func (c *Checker) refAddPDGEdge(g *pdg, src, dst *txn.Txn, seq uint64, found []txn.Violation) []txn.Violation {
	if !g.add(src, dst, seq) {
		return found
	}
	c.stats.PDGEdges++
	if c.tel != nil {
		c.tel.edges.Inc()
	}
	c.tempAlloc(64)
	c.charge(c.model().PCDPerEdge)
	c.stats.CycleChecks++
	model := c.model()
	succ := func(t *txn.Txn) []*txn.Txn {
		c.charge(model.PCDCycleNode)
		return g.succs[t]
	}
	path := graph.FindPath(dst, src, succ)
	if path == nil {
		return found
	}
	c.stats.PreciseCycles++
	if c.tel != nil {
		c.tel.cycles.Inc()
	}
	if c.deferred {
		n := len(path)
		f := Find{Cycle: path, Seq: seq, Out: make([]uint64, n), OutOK: make([]bool, n)}
		for i := range path {
			f.Out[i], f.OutOK[i] = g.order(path[i], path[(i+1)%n])
		}
		c.finds = append(c.finds, f)
		return found
	}
	key := fmtCycleKey(path)
	if c.cycles.seen[key] {
		return found
	}
	if c.cycles.seen == nil {
		c.cycles.seen = make(map[string]bool)
	}
	c.cycles.seen[key] = true
	var blame telemetry.Span
	if c.tel != nil {
		blame = c.tel.reg.StartSpan(obs.Span{}, telemetry.SpanPCDBlame, c.meter)
	}
	v := txn.NewViolationWith(path, seq, g.order)
	blame.End()
	c.violations = append(c.violations, v)
	return append(found, v)
}

// sortedThreads returns a reader map's thread keys in ascending order.
func sortedThreads(m map[vm.ThreadID]*txn.Txn) []vm.ThreadID {
	if len(m) == 0 {
		return nil
	}
	ts := make([]vm.ThreadID, 0, len(m))
	for t := range m {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

// fmtCycleKey builds the reference cycle identity: sorted member IDs.
func fmtCycleKey(cycle []*txn.Txn) string {
	ids := make([]uint64, len(cycle))
	for i, tx := range cycle {
		ids[i] = tx.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	key := ""
	for _, id := range ids {
		key += fmt.Sprintf("%d,", id)
	}
	return key
}

// orderBySeq sorts all log entries of the SCC by the global access clock.
func orderBySeq(scc []*txn.Txn) []entryRef {
	var refs []entryRef
	for _, tx := range scc {
		for i := range tx.Log {
			refs = append(refs, entryRef{tx, i})
		}
	}
	sort.Slice(refs, func(i, j int) bool {
		return refs[i].tx.Log[refs[i].idx].Seq < refs[j].tx.Log[refs[j].idx].Seq
	})
	return refs
}
