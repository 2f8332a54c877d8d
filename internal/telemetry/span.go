package telemetry

import (
	"sync/atomic"
	"time"

	"doublechecker/internal/cost"
	"doublechecker/internal/obs"
)

// spanStat accumulates one named phase's totals.
type spanStat struct {
	count     atomic.Uint64
	costUnits atomic.Int64
	wallNanos atomic.Int64
}

// Span measures one occurrence of a named pipeline phase: wall time between
// StartSpan and End, plus the cost-model units the attached meter charged in
// between. Spans of the same name accumulate in the registry; the snapshot
// reports the per-phase count, total cost units, and total wall nanoseconds.
//
// The same Span is also the phase's node in a request's trace tree: started
// under a live obs parent, it opens a child of that name, forwards its
// attributes there, and End closes the child carrying the cost delta as its
// cost_units attribute (when a meter is attached). One phase boundary is
// thus one Span, feeding both the registry totals and the trace.
//
// A Span is a value; End must be called exactly once. The zero Span — and
// a span with a nil registry under a non-live parent — is a no-op that does
// not allocate.
type Span struct {
	stat      *spanStat
	trace     obs.Span
	meter     *cost.Meter
	start     time.Time
	startCost cost.Units
}

// StartSpan begins one occurrence of the named phase under parent. meter
// may be nil, in which case the span records wall time and count only.
// Pass the zero obs.Span as parent for a registry-only phase.
func (r *Registry) StartSpan(parent obs.Span, name string, meter *cost.Meter) Span {
	s := Span{stat: r.spanStat(name), trace: parent.Child(name)}
	if s.stat == nil && !s.trace.Live() {
		return Span{}
	}
	s.start = time.Now()
	if meter != nil {
		s.meter = meter
		s.startCost = meter.Total()
	}
	return s
}

// SetInt attaches an integer attribute to the span's trace node (a no-op
// when the span is not traced).
func (s Span) SetInt(key string, v int64) { s.trace.SetInt(key, v) }

// SetStr attaches a string attribute to the span's trace node.
func (s Span) SetStr(key, v string) { s.trace.SetStr(key, v) }

// End finishes the span: the registry is charged its count, wall time and
// cost delta, and the trace node (if any) is closed with the same delta.
func (s Span) End() {
	var delta cost.Units
	if s.meter != nil {
		delta = s.meter.Total() - s.startCost
	}
	if s.stat != nil {
		s.stat.count.Add(1)
		s.stat.wallNanos.Add(int64(time.Since(s.start)))
		s.stat.costUnits.Add(int64(delta))
	}
	if s.trace.Live() {
		if s.meter != nil {
			s.trace.SetInt("cost_units", int64(delta))
		}
		s.trace.End()
	}
}
