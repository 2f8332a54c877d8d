package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"doublechecker/internal/core"
	"doublechecker/internal/server"
	"doublechecker/internal/trace"
)

const (
	// latencyLimitMs is the service's latency limit on serve_tail_ms: a
	// ladder rung passes only if its tail latency stays under it.
	latencyLimitMs = 100
	// The ladder of offered rates is ladderBase·ladderStep^k req/s.
	ladderBase  = 5.0
	ladderStep  = 1.05
	ladderRungs = 120
)

func ladderRate(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }

// outcome is one /check request as the client saw it.
type outcome struct {
	upload  int
	status  int
	body    string
	traceID string // the server's X-DC-Trace-Id for the request
	err     error
	late    time.Duration // how late the generator sent it
	latency time.Duration // completion minus due time
}

// client sends uploads over at most conns connections.
type client struct {
	http *http.Client
	tr   *http.Transport
	conc int
}

func newClient(n int) *client {
	tr := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr}, tr: tr, conc: n}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// post sends one upload and returns the response's status, body and
// trace ID.
func (c *client) post(ctx context.Context, svc *service, up upload) (int, string, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		svc.url+"/check?name="+url.QueryEscape(up.name), bytes.NewReader(up.body))
	if err != nil {
		return 0, "", "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, "", "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), resp.Header.Get(server.TraceIDHeader), err
}

// openLoop sends requests [from, to) of the schedule at rate req/s, each
// due at a fixed time whether or not earlier ones finished. A request that
// finds every connection busy waits in the generator; its latency still
// counts from its due time. rate <= 0 sends back to back (closed loop).
// With maxOver > 0 the generator stops early, once more than maxOver
// requests have exceeded the latency limit; only sent requests are
// returned.
func (c *client) openLoop(ctx context.Context, svc *service, e *env, from, to int, rate float64, maxOver int) []outcome {
	type job struct {
		i   int
		due time.Time
	}
	n := to - from
	outs := make([]outcome, n)
	jobs := make(chan job) // unbuffered: a busy pool makes the generator late
	var wg sync.WaitGroup
	var over atomic.Int64
	for w := 0; w < c.conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				sent := time.Now()
				up := e.schedule[from+j.i]
				status, body, traceID, err := c.post(ctx, svc, e.uploads[up])
				if j.due.IsZero() {
					j.due = sent
				}
				o := outcome{upload: up, status: status, body: body, traceID: traceID, err: err,
					late: sent.Sub(j.due), latency: time.Since(j.due)}
				if o.status != http.StatusOK || ms(o.latency) > latencyLimitMs {
					over.Add(1)
				}
				outs[j.i] = o
			}
		}()
	}
	start := time.Now().Add(2 * time.Millisecond)
	sent := 0
	for ; sent < n && (maxOver <= 0 || over.Load() <= int64(maxOver)); sent++ {
		i := sent
		var due time.Time
		if rate > 0 {
			due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			time.Sleep(time.Until(due))
		}
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	return outs[:sent]
}

// serveSegment is how many requests of a service pass share one host-speed
// factor, calibrated before and after them.
const serveSegment = 30

// serveSamples are the service phases' results.
type serveSamples struct {
	serial    samples   // serial-pass latencies of cold checks per program, ms, normalized to the reference host
	rawSerial samples   // the same, unscaled
	fixed     []outcome // the fixed-rate phase
	latency   []float64 // its latencies in ms, normalized to the reference host
	maxRPS    float64   // normalized to the reference host
	probes    []string  // one line per ladder probe, for the report
}

// segmented sends the first n requests of the upload schedule in
// serveSegment-request segments
// through send and hands each outcome to each with the host-speed factor
// measured around its segment.
func segmented(hs *hostSpeed, n int, send func(from, to int) []outcome, each func(o outcome, f float64)) {
	for from := 0; from < n; from += serveSegment {
		var outs []outcome
		f := hs.around(func() { outs = send(from, min(from+serveSegment, n)) })
		for _, o := range outs {
			each(o, f)
		}
	}
}

// runServe sends the upload schedule to the server set up with e over one
// connection, each request as soon as the previous one is answered (the
// serial pass: no request waits behind another), then its first
// fixedRequests to a fresh server at the fixed rate over one connection per
// CPU, then searches the rate ladder. Every response is checked in res.
func runServe(ctx context.Context, e *env, hs *hostSpeed, res *result) (*serveSamples, error) {
	refs := &references{e: e, byUpload: make(map[int]string)}
	ss := &serveSamples{serial: samples{}, rawSerial: samples{}}

	// The serial pass times each upload's first request, a cold check:
	// repeats are store hits, and a median over both would fall between
	// them.
	serial := newClient(1)
	var outs []outcome
	sent := make(map[int]bool)
	segmented(hs, serveRequests, func(from, to int) []outcome {
		return serial.openLoop(ctx, e.svc, e, from, to, 0, 0)
	}, func(o outcome, f float64) {
		outs = append(outs, o)
		if !sent[o.upload] {
			sent[o.upload] = true
			addTime(ss.serial, ss.rawSerial, e.uploads[o.upload].prog, o.latency, f)
		}
	})
	serial.close()
	e.svc.stop()
	for _, o := range outs {
		res.check(refs.problem(ctx, o))
	}

	c := newClient(runtime.NumCPU())
	defer c.close()
	svc, err := startService()
	if err != nil {
		return nil, err
	}
	segmented(hs, fixedRequests, func(from, to int) []outcome {
		return c.openLoop(ctx, svc, e, from, to, serveRate, 0)
	}, func(o outcome, f float64) {
		ss.latency = append(ss.latency, ms(o.latency)*f)
		ss.fixed = append(ss.fixed, o)
	})
	svc.stop()
	for _, o := range ss.fixed {
		res.check(refs.problem(ctx, o))
	}

	// probe runs one ladder rung on a fresh server. A rung passes when
	// every request succeeds, the tail latency stays under the limit, and
	// the generator is not falling behind by the last request. A rung is
	// abandoned as failed once too many requests missed the limit for its
	// tail to meet it. factor records the host-speed factor of each rung's
	// latest probe.
	factor := make(map[int]float64)
	probe := func(k int) (bool, error) {
		svc, err := startService()
		if err != nil {
			return false, err
		}
		maxOver := int(float64(probeRequests) * (1 - tailQuantile))
		var outs []outcome
		factor[k] = hs.around(func() {
			outs = c.openLoop(ctx, svc, e, 0, probeRequests, ladderRate(k), maxOver)
		})
		svc.stop()
		ok := len(outs) == probeRequests
		var lat []float64
		for _, o := range outs {
			p := refs.problem(ctx, o)
			res.check(p)
			if p != "" {
				ok = false
			}
			lat = append(lat, ms(o.latency))
		}
		t := tail(lat)
		lastLate := ms(outs[len(outs)-1].late)
		ok = ok && t <= latencyLimitMs && lastLate <= latencyLimitMs
		ss.probes = append(ss.probes, fmt.Sprintf("rate %7.2f req/s: %3d sent, p90 %8.3f ms, last send late %8.3f ms, pass %v",
			ladderRate(k), len(outs), t, lastLate, ok))
		return ok, nil
	}

	// Bracket the search with a closed-loop capacity estimate, then
	// bisect the ladder between half and 1.5 times that capacity.
	svc, err = startService()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	outs = c.openLoop(ctx, svc, e, 0, probeRequests, 0, 0)
	capacity := float64(len(outs)) / time.Since(t0).Seconds()
	svc.stop()
	for _, o := range outs {
		res.check(refs.problem(ctx, o))
	}
	// The rate is normalized by the host speed its deciding probe ran at:
	// a faster host sustains a higher raw rate.
	k, err := bisectLadder(capacity, probe)
	if err != nil {
		return nil, err
	}
	ss.maxRPS = ladderRate(k) / factor[k]
	return ss, nil
}

// bisectLadder returns the highest rung between half and 1.5 times
// capacity that probe passes, assuming rungs pass below some rate and fail
// above it; an error if not even the lowest rung passes.
func bisectLadder(capacity float64, probe func(int) (bool, error)) (int, error) {
	lo, hi := 0, ladderRungs
	for lo+1 < ladderRungs && ladderRate(lo+1) <= capacity/2 {
		lo++
	}
	for hi-1 > lo && ladderRate(hi-1) >= capacity*1.5 {
		hi--
	}
	loProbed := false
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := probe(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo, loProbed = mid, true
		} else {
			hi = mid
		}
	}
	for !loProbed {
		ok, err := probe(lo)
		if err != nil || ok {
			return lo, err
		}
		if lo == 0 {
			return 0, fmt.Errorf("no rung of the rate ladder meets the %d ms limit", latencyLimitMs)
		}
		lo--
	}
	return lo, nil
}

// references holds the expected /check response of each upload: the replay
// report computed outside the server, by core.RunTrace and
// core.ReplayReport on the same bytes.
type references struct {
	e        *env
	byUpload map[int]string
}

func (r *references) get(ctx context.Context, up int) (string, error) {
	if s, ok := r.byUpload[up]; ok {
		return s, nil
	}
	d, err := trace.Read(bytes.NewReader(r.e.uploads[up].body))
	if err != nil {
		return "", err
	}
	res, err := core.RunTrace(ctx, d, core.Config{Analysis: core.DCSingle})
	if err != nil {
		return "", err
	}
	if r.e.uploads[up].clean && len(res.Violations) > 0 {
		return "", fmt.Errorf("clean program reported %d violations", len(res.Violations))
	}
	s := core.ReplayReport(r.e.uploads[up].name, d, res)
	r.byUpload[up] = s
	return s, nil
}

// problem describes what is wrong with one response; "" means it is the
// reference report, byte for byte.
func (r *references) problem(ctx context.Context, o outcome) string {
	name := r.e.uploads[o.upload].name
	switch {
	case o.err != nil:
		return fmt.Sprintf("serve %s: %v", name, o.err)
	case o.status != http.StatusOK:
		return fmt.Sprintf("serve %s: status %d: %s", name, o.status, o.body)
	}
	want, err := r.get(ctx, o.upload)
	if err != nil {
		return fmt.Sprintf("serve %s: reference: %v", name, err)
	}
	if o.body != want {
		return fmt.Sprintf("serve %s: response %q differs from reference %q", name, o.body, want)
	}
	return ""
}
