package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"doublechecker/internal/obs"
)

// TestCounterConcurrent hammers one counter and one histogram from many
// goroutines; run under -race this is the registry's thread-safety gate.
func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	const goroutines, perG = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("shared")
			h := reg.Histogram("dist", []uint64{4, 16})
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(uint64(i % 32))
				reg.Gauge("g").Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := reg.Histogram("dist", nil).Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

// TestHistogramBuckets pins the boundary rule: bucket i counts v <=
// Bounds[i], the final implicit bucket counts overflow.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]uint64{2, 4, 8})
	for _, v := range []uint64{1, 2, 3, 4, 5, 8, 9, 100} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 2, 2} // {1,2}, {3,4}, {5,8}, {9,100}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got[i], want[i])
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
	if h.Sum() != 1+2+3+4+5+8+9+100 {
		t.Errorf("sum = %d", h.Sum())
	}
}

// TestHistogramSortsBounds: unsorted bounds are normalized at creation.
func TestHistogramSortsBounds(t *testing.T) {
	h := newHistogram([]uint64{8, 2, 4})
	h.Observe(3)
	if got := h.BucketCounts(); got[1] != 1 {
		t.Errorf("observation of 3 landed in %v, want bucket 1", got)
	}
}

// TestNilRegistry: every method is safe on a nil receiver and returns
// working (unregistered) handles, so instrumented code needs no hot-path
// nil checks.
func TestNilRegistry(t *testing.T) {
	var reg *Registry
	reg.Counter("c").Inc()
	reg.Gauge("g").Set(1.5)
	reg.Histogram("h", []uint64{1}).Observe(2)
	sp := reg.StartSpan(obs.Span{}, "phase", nil)
	sp.End()
	s := reg.Snapshot()
	if len(s.Counters) != 0 || len(s.Spans) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
	var buf bytes.Buffer
	reg.WriteProm(&buf)
	if buf.Len() != 0 {
		t.Errorf("nil registry wrote prom output: %q", buf.String())
	}
	// The zero Span is likewise a no-op.
	var zero Span
	zero.End()
}

// TestSpanAccumulates: spans of the same name sum their counts and wall
// time; Deterministic strips the wall time and nothing else.
func TestSpanAccumulates(t *testing.T) {
	reg := NewRegistry()
	for i := 0; i < 3; i++ {
		sp := reg.StartSpan(obs.Span{}, "execute", nil)
		time.Sleep(time.Millisecond)
		sp.End()
	}
	s := reg.Snapshot()
	got := s.Spans["execute"]
	if got.Count != 3 {
		t.Errorf("span count = %d, want 3", got.Count)
	}
	if got.WallNanos <= 0 {
		t.Errorf("span wall = %d, want > 0", got.WallNanos)
	}
	det := s.Deterministic()
	if det.Spans["execute"].WallNanos != 0 {
		t.Error("Deterministic kept wall time")
	}
	if det.Spans["execute"].Count != 3 {
		t.Error("Deterministic dropped span count")
	}
	if got := s.Spans["execute"].WallNanos; got <= 0 {
		t.Errorf("Deterministic mutated the source snapshot (wall=%d)", got)
	}
}

// TestSnapshotJSONStable: two registries fed identical operations encode to
// byte-identical deterministic JSON, regardless of insertion order.
func TestSnapshotJSONStable(t *testing.T) {
	feed := func(names []string) []byte {
		reg := NewRegistry()
		for _, n := range names {
			reg.Counter(n).Add(7)
		}
		reg.Gauge("frac").Set(0.5)
		reg.Histogram("sizes", []uint64{2, 4}).Observe(3)
		sp := reg.StartSpan(obs.Span{}, "phase", nil)
		sp.End()
		return reg.Snapshot().Deterministic().JSON()
	}
	a := feed([]string{"x", "y", "z"})
	b := feed([]string{"z", "y", "x"})
	if !bytes.Equal(a, b) {
		t.Errorf("snapshots differ:\n%s\nvs\n%s", a, b)
	}
}

// TestWriteProm pins the exposition format: dc_ prefix, sanitized names,
// TYPE lines, and cumulative le buckets.
func TestWriteProm(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("octet.transitions.fast_path").Add(5)
	reg.Gauge("pcd.replayed_tx_fraction").Set(0.25)
	h := reg.Histogram("icd.scc.size", []uint64{2, 4})
	h.Observe(2)
	h.Observe(3)
	h.Observe(9)
	var buf bytes.Buffer
	reg.WriteProm(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE dc_octet_transitions_fast_path counter\ndc_octet_transitions_fast_path 5\n",
		"# TYPE dc_pcd_replayed_tx_fraction gauge\ndc_pcd_replayed_tx_fraction 0.25\n",
		"dc_icd_scc_size_bucket{le=\"2\"} 1\n",
		"dc_icd_scc_size_bucket{le=\"4\"} 2\n",
		"dc_icd_scc_size_bucket{le=\"+Inf\"} 3\n",
		"dc_icd_scc_size_sum 14\ndc_icd_scc_size_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
}

// TestSnapshotAccessors: Counter and Gauge lookups default to zero.
func TestSnapshotAccessors(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a").Inc()
	s := reg.Snapshot()
	if s.Counter("a") != 1 || s.Counter("missing") != 0 {
		t.Errorf("counter accessors: %+v", s.Counters)
	}
	if s.Gauge("missing") != 0 {
		t.Error("missing gauge should read 0")
	}
}

// write applies one writer's metric updates; TestMergeMatchesSequentialWrites
// replays the same writers directly and through private registries.
func write(reg *Registry, k int) {
	reg.Counter("c").Add(uint64(k))
	reg.Counter("zero")
	reg.Gauge("g").Set(float64(10 * k))
	if k%2 == 0 {
		reg.Gauge("even").Set(float64(k))
	}
	reg.Histogram("h", []uint64{2, 8}).Observe(uint64(k * 3))
	sp := reg.StartSpan(obs.Span{}, "phase", nil)
	sp.End()
}

// TestMergeMatchesSequentialWrites pins Merge's contract: merging private
// registries in order gives the registry the writers would have left by
// writing into it one after another — counters, histograms and spans add,
// gauges keep the last writer's value.
func TestMergeMatchesSequentialWrites(t *testing.T) {
	direct, merged := NewRegistry(), NewRegistry()
	direct.Counter("c").Add(100)
	merged.Counter("c").Add(100)
	var wall int64
	for k := 1; k <= 5; k++ {
		write(direct, k)
		private := NewRegistry()
		write(private, k)
		wall += private.Snapshot().Spans["phase"].WallNanos
		merged.Merge(private)
	}
	got, want := merged.Snapshot().Deterministic().JSON(), direct.Snapshot().Deterministic().JSON()
	if !bytes.Equal(got, want) {
		t.Fatalf("merged registry:\n%s\nwant\n%s", got, want)
	}
	if g := merged.Snapshot().Gauge("even"); g != 4 {
		t.Errorf("gauge written only by writers 2 and 4 = %v, want 4", g)
	}
	if s := merged.Snapshot().Spans["phase"]; s.Count != 5 || s.WallNanos != wall {
		t.Errorf("span totals %+v, want 5 occurrences taking %d ns", s, wall)
	}
}

func TestMergeRejectsDifferentHistogramBounds(t *testing.T) {
	dst, src := NewRegistry(), NewRegistry()
	dst.Histogram("h", []uint64{1, 2})
	src.Histogram("h", []uint64{1, 4})
	defer func() {
		if recover() == nil {
			t.Fatal("merging histograms with different bounds did not panic")
		}
	}()
	dst.Merge(src)
}
