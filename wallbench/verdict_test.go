package main

import (
	"context"
	"net/http"
	"runtime"
	"testing"

	"doublechecker/internal/core"
	"doublechecker/internal/vm"
)

// tinyEnv sets up a workload small enough for a unit test.
func tinyEnv(t *testing.T) *env {
	t.Helper()
	p := progSpec{"hsqldb6", 0.1}
	e, err := setup(context.Background(), workload{name: "tiny", live: []progSpec{p}, traces: []progSpec{p}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.svc.stop)
	return e
}

// A planted wrong verdict, live or served, counts as a failed check.
func TestPlantedWrongVerdictFails(t *testing.T) {
	ctx := context.Background()
	e := tinyEnv(t)
	s := e.live[0]

	got, err := singleCheck(ctx, s, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.RunContext(ctx, s.built.Prog, core.Config{Analysis: core.Velodrome, Sched: s.sched(3), Atomic: s.spec.Atomic})
	if err != nil {
		t.Fatal(err)
	}
	res := newResult()
	res.check(verdictProblem(s, "single-run", 3, got, ref))
	if res.failed != 0 {
		t.Fatalf("honest verdict failed: %v", res.failures)
	}
	planted := *ref
	planted.BlamedMethods = map[vm.MethodID]bool{s.built.Prog.Methods[0].ID: true}
	for m := range ref.BlamedMethods {
		planted.BlamedMethods[m] = !planted.BlamedMethods[m]
	}
	res.check(verdictProblem(s, "single-run", 3, got, &planted))
	if res.attempted != 2 || res.failed != 1 {
		t.Fatalf("planted wrong verdict: attempted %d, failed %d; want 2, 1", res.attempted, res.failed)
	}

	refs := &references{e: e, byUpload: make(map[int]string)}
	want, err := refs.get(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	res = newResult()
	res.check(refs.problem(ctx, outcome{upload: 0, status: http.StatusOK, body: want}))
	res.check(refs.problem(ctx, outcome{upload: 0, status: http.StatusOK, body: want + " "}))
	if res.attempted != 2 || res.failed != 1 {
		t.Fatalf("planted wrong report: attempted %d, failed %d; want 2, 1", res.attempted, res.failed)
	}
}

// A request the server refuses counts as a failed check.
func TestRefusedRequestFails(t *testing.T) {
	ctx := context.Background()
	e := tinyEnv(t)
	c := newClient(runtime.NumCPU())
	defer c.close()
	refs := &references{e: e, byUpload: make(map[int]string)}

	res := newResult()
	for _, o := range c.openLoop(ctx, e.svc, e, 0, 3, 0, 0) {
		res.check(refs.problem(ctx, o))
	}
	if res.failed != 0 {
		t.Fatalf("served requests failed: %v", res.failures)
	}
	// A draining server refuses new checks with 503; the upload is one
	// not sent before, so no cached result can answer it.
	e.svc.srv.StartDrain()
	fresh := len(e.uploads) - 1
	status, body, _, err := c.post(ctx, e.svc, e.uploads[fresh])
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining server answered %d, want 503", status)
	}
	res.check(refs.problem(ctx, outcome{upload: fresh, status: status, body: body}))
	if res.attempted != 4 || res.failed != 1 {
		t.Fatalf("refused request: attempted %d, failed %d; want 4, 1", res.attempted, res.failed)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.9); got != 4.6 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
}
