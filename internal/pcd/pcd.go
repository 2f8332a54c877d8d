// Package pcd implements DoubleChecker's precise cycle detection analysis
// (paper §3.3).
//
// PCD is not a standalone dynamic analysis: it consumes, for each SCC that
// ICD reports, (1) the set of transactions, (2) their read/write logs, and
// (3) the cross-thread IDG edges recorded relative to log entries. It
// "replays" that slice of the execution, rebuilding precise per-field
// last-access information — W(f), the last transaction to write f, and
// R(T,f), the last transaction of each thread T to read f — and adds
// precise dependence edges to a precise dependence graph (PDG) using the
// rules of the paper's Figure 5. A cycle in the PDG is a real conflict
// serializability violation; blame assignment (§3.3) marks the
// transaction(s) that completed each cycle.
//
// Two replay orders are implemented. ReplayBySeq uses the VM's global access
// clock, which is exact. ReplayByEdges reconstructs an order purely from the
// per-transaction log order plus the edge-relative positions ICD recorded —
// what the paper's implementation must do, since a JVM has no global access
// clock. Both orders are consistent with the actual execution, so they find
// the same cycles; a property test asserts that.
package pcd

import (
	"encoding/binary"
	"slices"
	"sort"

	"doublechecker/internal/cost"
	"doublechecker/internal/obs"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/txn"
	"doublechecker/internal/vm"
)

// ReplayOrder selects how PCD linearizes the SCC's log entries.
type ReplayOrder int

const (
	// BySeq replays in global access-clock order (exact).
	BySeq ReplayOrder = iota
	// ByEdges replays in an order reconstructed from log positions and
	// edge-relative coordinates (paper-faithful).
	ByEdges
)

// Stats counts PCD activity.
type Stats struct {
	SCCsProcessed   uint64
	TxnsProcessed   uint64 // SCC members fed to Process (a re-fed member counts again)
	DistinctTxns    uint64 // distinct transactions ever sent to PCD
	EntriesReplayed uint64
	PDGEdges        uint64
	CycleChecks     uint64
	PreciseCycles   uint64 // dynamic precise cycles (pre-dedup)
}

// tel holds pre-resolved telemetry handles (nil when no registry attached).
type tel struct {
	reg      *telemetry.Registry
	sccs     *telemetry.Counter
	txns     *telemetry.Counter
	txnsSent *telemetry.Counter
	entries  *telemetry.Counter
	edges    *telemetry.Counter
	cycles   *telemetry.Counter
	fieldMap *telemetry.Histogram
}

// Checker is a PCD instance. It is fed SCCs by ICD (via core) and
// accumulates precise violations.
type Checker struct {
	meter *cost.Meter
	order ReplayOrder

	violations []txn.Violation
	cycles     cycleSet            // distinct cycles reported so far
	seenTxns   map[uint64]struct{} // distinct txn IDs sent to PCD (nil on shards)
	deferred   bool                // shard mode: record Finds, defer dedup/blame
	finds      []Find
	stats      Stats
	tel        *tel
	tspan      obs.Span // request-scoped parent for pcd.replay spans
	tempBytes  int64    // live replay temporaries (released per Process)
	rs         *replay  // dense replay scratch, reused across Process calls
}

// SetTelemetry attaches a registry: Process then records live counters, the
// per-field map-size histogram, and the pcd.replay / pcd.blame phase spans.
func (c *Checker) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.tel = newTel(reg)
}

// SetTraceSpan attaches a request-scoped trace parent: each SCC's
// pcd.replay span then also appears in the trace tree. The zero Span (the
// default) keeps them registry-only.
func (c *Checker) SetTraceSpan(sp obs.Span) { c.tspan = sp }

// newTel resolves the full PCD handle set eagerly. The pool calls it too
// (before any SCC exists), so a zero-SCC run registers the same metric names
// under the serial and the pooled paths — a requirement of the byte-identical
// Deterministic() snapshot contract.
func newTel(reg *telemetry.Registry) *tel {
	return &tel{
		reg:      reg,
		sccs:     reg.Counter(telemetry.PCDSCCs),
		txns:     reg.Counter(telemetry.PCDTxns),
		txnsSent: reg.Counter(telemetry.PCDTxnsSent),
		entries:  reg.Counter(telemetry.PCDEntries),
		edges:    reg.Counter(telemetry.PCDEdges),
		cycles:   reg.Counter(telemetry.PCDCycles),
		fieldMap: reg.Histogram(telemetry.PCDFieldMap, telemetry.MapSizeBuckets),
	}
}

// registry returns the attached registry, nil when there is none.
func (t *tel) registry() *telemetry.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// tempAlloc meters a replay-temporary allocation.
func (c *Checker) tempAlloc(n int64) {
	c.tempBytes += n
	if c.meter != nil {
		c.meter.Alloc(n)
	}
}

// NewChecker returns a PCD checker using the given replay order; meter may
// be nil.
func NewChecker(meter *cost.Meter, order ReplayOrder) *Checker {
	return &Checker{
		meter:    meter,
		order:    order,
		seenTxns: make(map[uint64]struct{}),
	}
}

// NewShard returns a pool-worker checker: Process records raw cycle Finds
// instead of deduplicating and assigning blame, and distinct-transaction
// accounting is left to the pool (which sees SCCs in hand-off order).
// Deferring both is what makes the merged result independent of how SCCs
// were assigned to workers: cross-SCC dedup keeps the first find in hand-off
// order, and blame runs exactly once per distinct cycle — just as the serial
// checker behaves.
func NewShard(meter *cost.Meter, order ReplayOrder) *Checker {
	return &Checker{meter: meter, order: order, deferred: true}
}

// Find is one raw precise cycle recorded by a shard in deferred mode: the
// cycle path, the detection clock, and the PDG edge orders of the cycle's
// adjacent pairs — everything blame assignment (txn.BlameWith) will ask for,
// captured before the per-Process PDG is discarded.
type Find struct {
	Cycle []*txn.Txn
	Seq   uint64
	Out   []uint64 // Out[i] orders the Cycle[i] -> Cycle[i+1] edge
	OutOK []bool
}

// Violation runs blame assignment over the find, exactly as the serial
// checker would have at detection time.
func (f *Find) Violation() txn.Violation {
	n := len(f.Cycle)
	idx := make(map[*txn.Txn]int, n)
	for i, tx := range f.Cycle {
		idx[tx] = i
	}
	order := func(src, dst *txn.Txn) (uint64, bool) {
		i, ok := idx[src]
		if !ok || f.Cycle[(i+1)%n] != dst || !f.OutOK[i] {
			return 0, false
		}
		return f.Out[i], true
	}
	return txn.NewViolationWith(f.Cycle, f.Seq, order)
}

// TakeFinds returns and clears the cycle finds recorded in deferred (shard)
// mode, in discovery order.
func (c *Checker) TakeFinds() []Find {
	f := c.finds
	c.finds = nil
	return f
}

// Violations returns the distinct precise violations found so far.
func (c *Checker) Violations() []txn.Violation { return c.violations }

// Stats returns PCD counters.
func (c *Checker) Stats() Stats { return c.stats }

func (c *Checker) charge(u cost.Units) {
	if c.meter != nil {
		c.meter.Charge(u)
	}
}

func (c *Checker) model() cost.Model {
	if c.meter != nil {
		return c.meter.Model()
	}
	return cost.Model{}
}

// Process replays one SCC and records any precise violations. It returns
// the violations newly found in this SCC (already added to Violations).
//
// Replay runs over the Checker's dense scratch (see replay): SCC members,
// cut unary segments, fields and threads are int32 indices, so the
// per-entry work of Figure 5 does no map hashing and, once the scratch has
// grown to the SCC's size, no allocation.
func (c *Checker) Process(scc []*txn.Txn) []txn.Violation {
	c.stats.SCCsProcessed++
	c.stats.TxnsProcessed += uint64(len(scc))
	span := c.tel.registry().StartSpan(c.tspan, telemetry.SpanPCDReplay, c.meter)
	defer span.End()
	span.SetInt("scc_txns", int64(len(scc)))
	if c.tel != nil {
		c.tel.sccs.Inc()
		c.tel.txns.Add(uint64(len(scc)))
	}

	// Shards (seenTxns nil) skip distinct accounting: per-shard sets would
	// depend on which worker got which SCC, so the pool tracks distinct IDs
	// at submission instead.
	if c.seenTxns != nil {
		for _, tx := range scc {
			if _, ok := c.seenTxns[tx.ID]; !ok {
				c.seenTxns[tx.ID] = struct{}{}
				c.stats.DistinctTxns++
				if c.tel != nil {
					c.tel.txnsSent.Inc()
				}
			}
		}
	}

	if c.rs == nil {
		c.rs = &replay{}
	}
	r := c.rs
	r.load(scc, c.order)
	defer r.release()

	// Replay temporaries (the ordered entry list, the PDG, last-access
	// metadata) are real allocations made while every input log is still
	// live; for a giant SCC — above all the PCD-only straw man's
	// whole-execution replay — this heap spike is what drives GC cost and
	// the paper's out-of-memory failures. The model releases them when
	// Process returns.
	c.tempBytes = 0
	defer func() {
		if c.meter != nil {
			c.meter.Free(c.tempBytes)
		}
		c.tempBytes = 0
	}()
	c.tempAlloc(24 * int64(len(r.refs)))

	model := c.model()
	var found []txn.Violation
	for _, ref := range r.refs {
		m := &r.mem[ref.member]
		tx := scc[ref.member]
		e := &tx.Log[ref.idx]
		c.stats.EntriesReplayed++
		c.charge(model.PCDPerEntry)
		fi := r.field(e)
		f := &r.fields[fi]
		tid := tx.Thread

		// Will this entry receive a cross-thread edge?
		incoming := f.write >= 0 && r.nodes[f.write].tid != tid
		if e.Write && !incoming {
			for _, rd := range f.readers {
				if rd.tid != tid {
					incoming = true
					break
				}
			}
		}
		if incoming && tx.Unary && m.count > 0 {
			// Cut the merged unary: fresh segment node.
			m.seg++
			fresh := r.addNode(ref.member, m.seg, tid, e.Seq)
			r.addEdge(m.cur, fresh, e.Seq)
			m.cur = fresh
			m.count = 0
		}
		cur := m.cur

		// Intra-thread program order: same-thread transactions never
		// overlap, so replay order visits them sequentially.
		if last := r.threads[m.thread]; last >= 0 && last != cur {
			r.addEdge(last, cur, e.Seq)
		}
		r.threads[m.thread] = cur

		if f.write >= 0 && r.nodes[f.write].tid != tid {
			found = c.addPDGEdge(f.write, cur, e.Seq, found)
		}
		if e.Write {
			// Readers are kept in thread order, so a write racing several
			// readers inserts its anti-dependence edges — and so detects
			// cycles — in a fixed sequence.
			for _, rd := range f.readers {
				if rd.tid != tid {
					found = c.addPDGEdge(rd.node, cur, e.Seq, found)
				}
			}
			f.write = cur
			f.readers = f.readers[:0]
		} else {
			f.read(tid, cur)
		}
		m.count++
	}
	if c.tel != nil {
		c.tel.entries.Add(uint64(len(r.refs)))
		// The live per-field metadata at end of replay: W(f) plus R(T,f)
		// key sets — the heap spike §3.3's replay pays for.
		c.tel.fieldMap.Observe(r.fieldMapSize())
	}
	return found
}

// addPDGEdge inserts a precise dependence edge and checks for a cycle
// through it.
func (c *Checker) addPDGEdge(src, dst int32, seq uint64, found []txn.Violation) []txn.Violation {
	r := c.rs
	if !r.addEdge(src, dst, seq) {
		return found
	}
	c.stats.PDGEdges++
	if c.tel != nil {
		c.tel.edges.Inc()
	}
	c.tempAlloc(64)
	model := c.model()
	c.charge(model.PCDPerEdge)
	c.stats.CycleChecks++
	ok, visits := r.findPath(dst, src)
	if c.meter != nil {
		c.meter.ChargeN(model.PCDCycleNode, visits)
	}
	if !ok {
		return found
	}
	c.stats.PreciseCycles++
	if c.tel != nil {
		c.tel.cycles.Inc()
	}
	if c.deferred {
		c.finds = append(c.finds, r.find(seq))
		return found
	}
	for _, n := range r.path {
		c.cycles.add(r.id(n))
	}
	if !c.cycles.insert() {
		return found
	}
	blame := c.tel.registry().StartSpan(obs.Span{}, telemetry.SpanPCDBlame, c.meter)
	f := r.find(seq)
	v := f.Violation()
	blame.End()
	c.violations = append(c.violations, v)
	return append(found, v)
}

// cycleSet deduplicates cycles by identity: their member IDs, sorted, as
// fixed-width bytes. The key is built in reused buffers, so a repeat costs
// no allocation; only a new cycle's key is copied into the set.
type cycleSet struct {
	seen map[string]bool
	ids  []uint64
	buf  []byte
}

// add appends a member ID to the cycle being built.
func (s *cycleSet) add(id uint64) { s.ids = append(s.ids, id) }

// insert records the cycle whose IDs were added since the last insert and
// reports whether it is new.
func (s *cycleSet) insert() bool {
	slices.Sort(s.ids)
	s.buf = s.buf[:0]
	for _, id := range s.ids {
		s.buf = binary.BigEndian.AppendUint64(s.buf, id)
	}
	s.ids = s.ids[:0]
	if s.seen[string(s.buf)] {
		return false
	}
	if s.seen == nil {
		s.seen = make(map[string]bool)
	}
	s.seen[string(s.buf)] = true
	return true
}

// replay is the dense scratch state of one Process call, owned by a
// Checker (one per pool worker) and reused across calls. SCC members and
// cut unary segments are PDG nodes; fields and threads are interned into
// slices through one generation-stamped hash table.
//
// Invariants:
//   - Cycle search (findPath) visits nodes in exactly graph.FindPath's
//     order over successors kept in insertion order, so the same cycle is
//     found and the same PCDCycleNode charges are made.
//   - A field's readers stay sorted by thread ID, so a write adds its
//     anti-dependence edges in thread order without sorting.
//   - Reset is O(entries touched): slices are truncated and every slot is
//     initialized when a replay first claims it, and the tables are
//     emptied by bumping a generation and probe only a prefix sized for
//     the current replay — never the capacity an earlier giant replay left
//     behind.
type replay struct {
	scc      []*txn.Txn
	refs     []ref
	heap     []ref // mergeBySeq's member cursors
	mem      []member
	nodes    []node
	fields   []field
	threads  []int32 // each thread's most recent replayed node
	intern   table   // (obj, field, sync) → fields; thread ID → threads
	edges    table   // (src, dst) → edgeList
	edgeList []edge
	stack    []int32
	path     []int32
	dfsGen   uint32
}

// ref is one log entry in replay order: scc[member].Log[idx].
type ref struct {
	seq    uint64
	member int32
	idx    int32
}

// member is the replay state of one SCC transaction. Regular transactions
// are a single PDG node. Unary transactions are re-split during replay:
// ICD merged their accesses based on the imprecise IDG edges, but the
// merging optimization is only valid between accesses uninterrupted by
// edges — judged precisely here. An incoming precise edge therefore starts
// a fresh segment, restoring exactly the partition a fully precise online
// analysis (Velodrome) would have used. Without this, a merged unary can
// manufacture a cycle that the singleton ground truth does not have.
type member struct {
	cur    int32 // current segment node
	count  int32 // entries replayed into cur
	seg    int32 // segment index (for deterministic synthetic IDs)
	thread int32 // index into replay.threads
}

// node is one PDG node: a member (seg 0) or a cut segment of one.
type node struct {
	tx     *txn.Txn // a segment's transaction, built when a cycle needs it
	member int32
	seg    int32
	tid    vm.ThreadID
	start  uint64  // a segment's StartSeq
	succ   []int32 // successors in edge-insertion order
	seen   uint32  // findPath generation
	parent int32   // findPath discovery parent
}

// field is Figure 5's last-access metadata for one field: W(f) and the
// R(T,f) of each thread T, sorted by T.
type field struct {
	write   int32
	readers []reader
}

type reader struct {
	tid  vm.ThreadID
	node int32
}

// read records node as thread tid's last reader of f.
func (f *field) read(tid vm.ThreadID, n int32) {
	rs := f.readers
	i := 0
	for i < len(rs) && rs[i].tid < tid {
		i++
	}
	if i < len(rs) && rs[i].tid == tid {
		rs[i].node = n
		return
	}
	rs = append(rs, reader{})
	copy(rs[i+1:], rs[i:])
	rs[i] = reader{tid: tid, node: n}
	f.readers = rs
}

type edge struct {
	src, dst int32
	order    uint64
}

// Interning keys: aux separates data fields, sync fields and threads.
const (
	auxData uint32 = iota
	auxSync
	auxThread
)

// extend grows s by one element, keeping whatever an earlier replay left in
// that slot so its inner slices' capacity is reused.
func extend[T any](s []T) ([]T, *T) {
	if len(s) < cap(s) {
		s = s[:len(s)+1]
	} else {
		var zero T
		s = append(s, zero)
	}
	return s, &s[len(s)-1]
}

// load resets the scratch for scc and orders its log entries.
func (r *replay) load(scc []*txn.Txn, order ReplayOrder) {
	r.scc = scc
	r.refs = r.refs[:0]
	switch order {
	case ByEdges:
		r.refs = orderByEdges(scc, r.refs)
	default:
		r.mergeBySeq(scc)
	}

	r.intern.reset(len(r.refs) + len(scc))
	r.edges.reset(len(r.refs) + len(scc))
	r.edgeList = r.edgeList[:0]
	r.fields = r.fields[:0]
	r.threads = r.threads[:0]
	r.mem = r.mem[:0]
	r.nodes = r.nodes[:0]
	for i, tx := range scc {
		ti, ok := r.intern.lookup(uint64(uint32(tx.Thread)), auxThread)
		if !ok {
			*ti = int32(len(r.threads))
			r.threads = append(r.threads, -1)
		}
		r.mem = append(r.mem, member{cur: int32(i), thread: *ti})
		r.addNode(int32(i), 0, tx.Thread, 0)
	}
}

// mergeBySeq appends every log entry of scc in global access-clock order.
// Each member's Log is Seq-ascending (entries are recorded in clock order)
// and Seqs are unique, so a k-way merge over the logs — a min-heap of one
// cursor per member — yields exactly the order a sort would.
func (r *replay) mergeBySeq(scc []*txn.Txn) {
	h := r.heap[:0]
	for i, tx := range scc {
		if len(tx.Log) > 0 {
			h = append(h, ref{seq: tx.Log[0].Seq, member: int32(i)})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 {
		top := h[0]
		r.refs = append(r.refs, top)
		if log := scc[top.member].Log; int(top.idx)+1 < len(log) {
			h[0] = ref{seq: log[top.idx+1].Seq, member: top.member, idx: top.idx + 1}
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	r.heap = h
}

// siftDown restores the min-heap order on seq below h[i].
func siftDown(h []ref, i int) {
	for {
		least, l := i, 2*i+1
		if l < len(h) && h[l].seq < h[least].seq {
			least = l
		}
		if l+1 < len(h) && h[l+1].seq < h[least].seq {
			least = l + 1
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// release drops the scratch's references into the replayed transactions so
// they do not outlive the replay.
func (r *replay) release() {
	r.scc = nil
	for i := range r.nodes {
		r.nodes[i].tx = nil
	}
}

// field interns e's (object, field, sync) key.
func (r *replay) field(e *txn.LogEntry) int32 {
	aux := auxData
	if e.Sync {
		aux = auxSync
	}
	v, ok := r.intern.lookup(uint64(uint32(e.Obj))<<32|uint64(uint32(e.Field)), aux)
	if !ok {
		*v = int32(len(r.fields))
		var f *field
		r.fields, f = extend(r.fields)
		f.write = -1
		f.readers = f.readers[:0]
	}
	return *v
}

// fieldMapSize is the live per-field metadata count the pcd.field_map
// histogram reports: fields with a W(f) plus fields with a non-empty R(·,f).
func (r *replay) fieldMapSize() uint64 {
	var n uint64
	for i := range r.fields {
		if r.fields[i].write >= 0 {
			n++
		}
		if len(r.fields[i].readers) > 0 {
			n++
		}
	}
	return n
}

func (r *replay) addNode(mem, seg int32, tid vm.ThreadID, start uint64) int32 {
	var n *node
	r.nodes, n = extend(r.nodes)
	n.tx, n.member, n.seg, n.tid, n.start = nil, mem, seg, tid, start
	n.succ = n.succ[:0]
	return int32(len(r.nodes) - 1)
}

// id is node n's transaction ID; a segment's is synthesized from its
// member's so cycle identities are deterministic.
func (r *replay) id(n int32) uint64 {
	nd := &r.nodes[n]
	base := r.scc[nd.member].ID
	if nd.seg == 0 {
		return base
	}
	return base<<16 | uint64(nd.seg)
}

// tx returns node n's transaction, building a segment's on first use.
func (r *replay) tx(n int32) *txn.Txn {
	nd := &r.nodes[n]
	base := r.scc[nd.member]
	if nd.seg == 0 {
		return base
	}
	if nd.tx == nil {
		nd.tx = &txn.Txn{
			ID:       r.id(n),
			Thread:   base.Thread,
			Method:   base.Method,
			Unary:    true,
			StartSeq: nd.start,
			Finished: true,
		}
	}
	return nd.tx
}

func edgeKey(src, dst int32) uint64 { return uint64(uint32(src))<<32 | uint64(uint32(dst)) }

// addEdge inserts a PDG edge with the given order if absent; reports
// whether it was new.
func (r *replay) addEdge(src, dst int32, order uint64) bool {
	if src == dst {
		return false
	}
	if r.edges.full() {
		r.edges.resize(2 * r.edges.size())
		for i, e := range r.edgeList {
			v, _ := r.edges.lookup(edgeKey(e.src, e.dst), 0)
			*v = int32(i)
		}
	}
	v, ok := r.edges.lookup(edgeKey(src, dst), 0)
	if ok {
		return false
	}
	*v = int32(len(r.edgeList))
	r.edgeList = append(r.edgeList, edge{src: src, dst: dst, order: order})
	r.nodes[src].succ = append(r.nodes[src].succ, dst)
	return true
}

func (r *replay) order(src, dst int32) (uint64, bool) {
	i, ok := r.edges.get(edgeKey(src, dst), 0)
	if !ok {
		return 0, false
	}
	return r.edgeList[i].order, true
}

// findPath is graph.FindPath over node indices, with generation-stamped
// seen/parent marks: a depth-first search from `from` for `to` that leaves
// the path, from first, in r.path. It returns whether `to` was reached and
// how many successor lists it read (the PCDCycleNode charges).
func (r *replay) findPath(from, to int32) (bool, int64) {
	r.dfsGen++
	if r.dfsGen == 0 {
		all := r.nodes[:cap(r.nodes)]
		for i := range all {
			all[i].seen = 0
		}
		r.dfsGen = 1
	}
	gen, nodes, stack := r.dfsGen, r.nodes, r.stack[:0]
	visits := int64(1)
	for _, s := range nodes[from].succ {
		if nodes[s].seen != gen {
			nodes[s].seen, nodes[s].parent = gen, from
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			path := append(r.path[:0], n)
			for n != from {
				n = nodes[n].parent
				path = append(path, n)
			}
			slices.Reverse(path)
			r.path, r.stack = path, stack
			return true, visits
		}
		visits++
		for _, s := range nodes[n].succ {
			if nodes[s].seen != gen {
				nodes[s].seen, nodes[s].parent = gen, n
				stack = append(stack, s)
			}
		}
	}
	r.stack = stack
	return false, visits
}

// find captures the cycle in r.path as a Find: its transactions and the
// orders of the PDG edges between adjacent members.
func (r *replay) find(seq uint64) Find {
	n := len(r.path)
	f := Find{Cycle: make([]*txn.Txn, n), Seq: seq, Out: make([]uint64, n), OutOK: make([]bool, n)}
	for i, nd := range r.path {
		f.Cycle[i] = r.tx(nd)
		f.Out[i], f.OutOK[i] = r.order(nd, r.path[(i+1)%n])
	}
	return f
}

// table is an open-addressing hash table from (key, aux) to an int32. A
// replay uses only a power-of-two prefix of slots sized for it, and reset
// empties that prefix in O(1) by bumping the generation: a slot whose gen
// differs is free.
type table struct {
	slots []slot
	mask  uint64
	gen   uint32
	n     int
}

type slot struct {
	key uint64
	aux uint32
	gen uint32
	val int32
}

// reset empties the table for a replay expected to hold up to want keys.
func (t *table) reset(want int) {
	size := 16
	for size < 2*want {
		size <<= 1
	}
	t.resize(size)
}

// resize empties the table and sets its probed prefix to size slots.
func (t *table) resize(size int) {
	if size > len(t.slots) {
		t.slots = make([]slot, size)
		t.gen = 0
	}
	t.gen++
	if t.gen == 0 {
		clear(t.slots)
		t.gen = 1
	}
	t.mask = uint64(size - 1)
	t.n = 0
}

func (t *table) size() int { return int(t.mask + 1) }

// full reports whether one more key would push the load past one half.
func (t *table) full() bool { return 2*(t.n+1) > t.size() }

func hashKey(key uint64, aux uint32) uint64 {
	x := key ^ uint64(aux)<<62
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// lookup returns the value cell of (key, aux), claiming a free slot when
// the key is absent; ok reports whether it was present. The caller keeps
// the load at most one half.
func (t *table) lookup(key uint64, aux uint32) (v *int32, ok bool) {
	for i := hashKey(key, aux) & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			s.key, s.aux, s.gen = key, aux, t.gen
			t.n++
			return &s.val, false
		}
		if s.key == key && s.aux == aux {
			return &s.val, true
		}
	}
}

// get returns the value of (key, aux) without claiming a slot.
func (t *table) get(key uint64, aux uint32) (int32, bool) {
	for i := hashKey(key, aux) & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			return 0, false
		}
		if s.key == key && s.aux == aux {
			return s.val, true
		}
	}
}

// orderByEdges reconstructs a replay order from the §3.2.4 machinery: each
// transaction's log with its special edge-mark entries, plus per-thread
// program order between transactions.
//
// Marks carry a globally ordered creation stamp. This is legitimate
// run-time information (not a replay-side oracle): an IDG edge is created
// on an already-synchronized Octet slow path, so stamping it from a global
// counter costs nothing — the same trick Octet itself uses for gRdShCnt.
//
// A mark on a transaction of thread T at stamp s is evidence that T had, by
// stamp s, executed everything that precedes the mark: the mark's own
// transaction's log prefix, and all of T's earlier transactions. The replay
// therefore processes marks in stamp order and flushes those prefixes
// before each one. Only the marks of edges between two SCC members count.
// ICD hands off final SCCs, and in a final SCC every IDG path between two
// members runs through members only (a transaction on such a path reaches
// the SCC and is reached from it), so the internal marks carry all the
// ordering evidence there is. Marks of edges to outsiders are left out:
// a member can still gain them after the SCC is final, and they must not
// change its replay. Entries after a thread's last anchor follow in a
// deterministic tail. The entries are appended to refs.
func orderByEdges(scc []*txn.Txn, refs []ref) []ref {
	memberOf := make(map[*txn.Txn]int32, len(scc))
	for i, tx := range scc {
		memberOf[tx] = int32(i)
	}

	// Per-thread program-order chains over SCC members. Same-thread
	// transactions are created in program order, so IDs order them strictly
	// (StartSeq can tie when a retirement and a successor share one clock
	// tick).
	byThread := make(map[vm.ThreadID][]*txn.Txn)
	for _, tx := range scc {
		byThread[tx.Thread] = append(byThread[tx.Thread], tx)
	}
	prevOf := make(map[*txn.Txn]*txn.Txn)
	for _, txs := range byThread {
		sort.Slice(txs, func(i, j int) bool { return txs[i].ID < txs[j].ID })
		for i := 1; i < len(txs); i++ {
			prevOf[txs[i]] = txs[i-1]
		}
	}

	emitted := make(map[*txn.Txn]int, len(scc))

	// flushTo emits tx's entries with index < cut (and first, everything in
	// tx's same-thread SCC predecessors).
	var flushTo func(tx *txn.Txn, cut int)
	flushTo = func(tx *txn.Txn, cut int) {
		if prev := prevOf[tx]; prev != nil {
			flushTo(prev, len(prev.Log))
		}
		for i := emitted[tx]; i < cut; i++ {
			refs = append(refs, ref{seq: tx.Log[i].Seq, member: memberOf[tx], idx: int32(i)})
		}
		if cut > emitted[tx] {
			emitted[tx] = cut
		}
	}

	// flushThreadBefore flushes, fully, every SCC transaction of th with
	// ID < beforeID: a mark on a later transaction of th proves they are
	// all in the past.
	flushThreadBefore := func(th vm.ThreadID, beforeID uint64) {
		txs := byThread[th]
		for i := len(txs) - 1; i >= 0; i-- {
			if txs[i].ID < beforeID {
				flushTo(txs[i], len(txs[i].Log))
				return // flushTo covers the predecessors
			}
		}
	}

	// Global anchor sequence. For equal stamps (several edges from one
	// barrier), out-marks flush before in-marks so a dependence's source
	// side is emitted first.
	type gmark struct {
		tx  *txn.Txn
		cut int // entries of tx preceding the mark
		seq uint64
		in  bool
	}
	var marks []gmark
	for _, tx := range scc {
		li := 0
		for _, mk := range tx.Marks {
			if _, internal := memberOf[mk.Other]; !internal {
				continue
			}
			// Entries strictly before the mark; an equal-Seq entry comes
			// after it (the barrier fires before the access is logged).
			for li < len(tx.Log) && tx.Log[li].Seq < mk.Seq {
				li++
			}
			marks = append(marks, gmark{tx: tx, cut: li, seq: mk.Seq, in: mk.In})
		}
	}
	sort.Slice(marks, func(i, j int) bool {
		if marks[i].seq != marks[j].seq {
			return marks[i].seq < marks[j].seq
		}
		if marks[i].in != marks[j].in {
			return !marks[i].in // out-marks first
		}
		return marks[i].tx.ID < marks[j].tx.ID
	})
	for _, m := range marks {
		flushThreadBefore(m.tx.Thread, m.tx.ID)
		flushTo(m.tx, m.cut)
	}

	// Deterministic tail: remaining entries per thread, in ID order.
	tail := make([]*txn.Txn, 0, len(byThread))
	for _, txs := range byThread {
		tail = append(tail, txs[len(txs)-1])
	}
	sort.Slice(tail, func(i, j int) bool { return tail[i].ID < tail[j].ID })
	for _, tx := range tail {
		flushTo(tx, len(tx.Log))
	}
	return refs
}
