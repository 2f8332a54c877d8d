package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"doublechecker/internal/core"
	"doublechecker/internal/server"
	"doublechecker/internal/spec"
	"doublechecker/internal/store"
	"doublechecker/internal/telemetry"
	"doublechecker/internal/trace"
	"doublechecker/internal/vm"
	"doublechecker/internal/workloads"
)

// progSpec names one subject program and the scale it runs at.
type progSpec struct {
	name  string
	scale float64
}

// workload is one set of inputs the benchmark runs: the programs checked
// live and the programs whose recorded traces the /check service receives.
type workload struct {
	name   string
	live   []progSpec
	traces []progSpec
}

// The live scales make one single-run check take roughly 5-20 ms on a
// 2-CPU x86 host (raytracer is cheap to check and expensive for
// Velodrome); the uploaded traces are recorded at smaller scales so the
// service phases reach their sample counts quickly. BENCHMARK.json and
// rationale.json record them with the measured layer shares.
var workloadTable = []workload{
	{
		name:   "txn",
		live:   []progSpec{{"hsqldb6", 2.5}, {"eclipse6", 2}},
		traces: []progSpec{{"hsqldb6", 1}, {"eclipse6", 1}},
	},
	{
		name:   "scc",
		live:   []progSpec{{"xalan6", 0.8}, {"sccmesh", 1.5}},
		traces: []progSpec{{"xalan6", 0.3}, {"sccmesh", 1}},
	},
	{
		name:   "local",
		live:   []progSpec{{"tsp", 2}, {"raytracer", 12}},
		traces: []progSpec{{"tsp", 1.5}, {"raytracer", 6}},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadTable {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// liveShare is the share of the run's seconds spent on live checks;
	// the service phases take what their request counts need after it.
	liveShare = 0.4
	// repeatShare is the share of uploads that repeat an earlier trace, so
	// the store's hit path runs while the median stays among cold checks.
	repeatShare = 0.2
	// serveRequests is the length of the upload schedule, which the
	// serial pass sends whole. The fixed-rate phase sends its first
	// fixedRequests at serveRate req/s, which keeps a 2-CPU host's service
	// at about a sixth of the rate it sustains, so a slower host stretches
	// queues little; each ladder probe sends a prefix of probeRequests.
	serveRequests = 300
	fixedRequests = 200
	serveRate     = 30.0
	probeRequests = 150
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 5
)

// subject is one built program with its atomicity specification.
type subject struct {
	name  string
	built *workloads.Built
	spec  *spec.Spec
	// plant, when set, wraps the single-run check's instrumentation: the
	// self-tests plant a known slowdown through it. Nil in every run.
	plant func(vm.Instrumentation) vm.Instrumentation
}

func (s *subject) sched(seed int64) vm.Scheduler { return vm.NewSticky(seed, s.built.Stickiness) }

// upload is one recorded trace the service receives.
type upload struct {
	prog  string // the recorded program
	name  string // display name sent with the request
	body  []byte
	clean bool // the program has no injected violations
}

// env is everything a run sets up before it measures.
type env struct {
	live     []*subject
	uploads  []upload // distinct recorded traces
	schedule []int    // upload index of each request, in send order
	svc      *service
}

// setup builds the workload's programs and specifications, records the
// service's traces under seeds drawn from seed, and starts the server.
func setup(ctx context.Context, wl workload, seed int64) (*env, error) {
	e := &env{}
	subjects := make(map[progSpec]*subject)
	get := func(p progSpec) (*subject, error) {
		if s, ok := subjects[p]; ok {
			return s, nil
		}
		b, err := workloads.Build(p.name, p.scale)
		if err != nil {
			return nil, err
		}
		sp := spec.Initial(b.Prog)
		if err := sp.ExcludeByName(b.InitialExclusions...); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		s := &subject{name: p.name, built: b, spec: sp}
		subjects[p] = s
		return s, nil
	}
	for _, p := range wl.live {
		s, err := get(p)
		if err != nil {
			return nil, err
		}
		e.live = append(e.live, s)
	}

	// The upload schedule: about one request in five repeats a trace sent
	// earlier; every other request uploads a fresh one.
	rng := rand.New(rand.NewSource(seed ^ 0x5e7e))
	distinct := 0
	for i := 0; i < serveRequests; i++ {
		if i > 0 && rng.Float64() < repeatShare {
			e.schedule = append(e.schedule, e.schedule[rng.Intn(i)])
			continue
		}
		e.schedule = append(e.schedule, distinct)
		distinct++
	}
	for i := 0; i < distinct; i++ {
		s, err := get(wl.traces[i%len(wl.traces)])
		if err != nil {
			return nil, err
		}
		body, err := record(ctx, s, rng.Int63())
		if err != nil {
			return nil, err
		}
		e.uploads = append(e.uploads, upload{prog: s.name,
			name: fmt.Sprintf("%s-%03d", s.name, i), body: body, clean: len(s.built.RacyMethods) == 0})
	}

	svc, err := startService()
	if err != nil {
		return nil, err
	}
	e.svc = svc
	return e, nil
}

// setupTimed sets up setupReps times and returns the last environment with
// the median set-up time in seconds, normalized to the reference host's
// speed and raw; the other environments are shut down.
func setupTimed(ctx context.Context, wl workload, seed int64, hs *hostSpeed) (*env, float64, float64, error) {
	var times, raw []float64
	var e *env
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.svc.stop()
			e = nil // collected before the next set-up, not during it
		}
		runtime.GC()
		var d time.Duration
		var err error
		f := hs.around(func() {
			t0 := time.Now()
			e, err = setup(ctx, wl, seed)
			d = time.Since(t0)
		})
		if err != nil {
			return nil, 0, 0, err
		}
		times = append(times, d.Seconds()*f)
		raw = append(raw, d.Seconds())
	}
	return e, median(times), median(raw), nil
}

// record runs s once under seed with the trace writer attached, as
// `dctrace record` does, and returns the encoded trace.
func record(ctx context.Context, s *subject, seed int64) ([]byte, error) {
	var atomic []vm.MethodID
	for _, m := range s.built.Prog.Methods {
		if s.spec.Atomic(m.ID) {
			atomic = append(atomic, m.ID)
		}
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{
		Program: s.built.Prog,
		Atomic:  atomic,
		Seed:    seed,
		Sched:   fmt.Sprintf("sticky(%g)", s.built.Stickiness),
		Source:  "wallbench:" + s.name,
	})
	if err != nil {
		return nil, err
	}
	if _, err := core.RecordRun(ctx, s.built.Prog, w, core.RecordConfig{
		Config: core.Config{Analysis: core.Baseline, Sched: s.sched(seed), Atomic: s.spec.Atomic},
		Source: "wallbench:" + s.name,
	}); err != nil {
		return nil, fmt.Errorf("record %s seed %d: %w", s.name, seed, err)
	}
	return buf.Bytes(), nil
}

// service is an in-process dcserve: server.New with dcserve's defaults
// (memory-tier result store on) behind a loopback listener. The PCD
// worker budget is capped at the CPU count.
type service struct {
	srv    *server.Server
	http   *http.Server
	url    string
	served chan error
}

func startService() (*service, error) {
	// As dcserve does, the store and the server share one registry.
	reg := telemetry.NewRegistry()
	st, err := store.Open(store.Config{MemBudget: store.DefaultMemBudget, Telemetry: reg})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{PCDBudget: runtime.NumCPU(), Cache: st, Telemetry: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop drains the server and waits until its serving goroutine has ended.
func (s *service) stop() {
	s.srv.WaitDrain(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		s.http.Close()
	}
	<-s.served
}
