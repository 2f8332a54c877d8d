package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"

	"doublechecker/internal/telemetry"
)

// serveReconcileTolerance bounds |client latency - the server's request
// span| as a share of the client latency, over the requests that ran a
// check: the part of a request the server's trace does not see, loopback
// HTTP. On a 2-vCPU x86-64 guest it measured 4-6%.
const serveReconcileTolerance = 0.15

// servedLayers is the traced service path, per request.
type servedLayers struct {
	decodeMs, replayMs, bytes float64
	getMs, putMs, hitFrac     float64
	rejected, lateMs          float64

	// For the reconciliation and the report: means over the requests that
	// ran a check.
	clientMs, childMs, rootMs              float64
	queueMs, trialMs, executeMs, collectMs float64
	pcdWorkerMs                            float64
	misses, hits                           int
}

// spanEvent is the part of a Chrome trace event that the breakdown reads.
type spanEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Dur  float64 `json:"dur"` // microseconds
	Args struct {
		SpanID uint64 `json:"span_id"`
		Parent uint64 `json:"parent"`
	} `json:"args"`
}

// requestSpans sums one request trace's span durations by name, in ms, and
// the self time of server.lead_check: its duration minus its direct
// children's (admission wait, the supervised check, the store insert), which
// leaves the trace decode and building the store entry.
type requestSpans struct {
	byName   map[string]float64
	count    map[string]int
	root     float64
	leadSelf float64
}

func parseSpans(body []byte) (*requestSpans, error) {
	var f struct {
		TraceEvents []spanEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &f); err != nil {
		return nil, err
	}
	rs := &requestSpans{byName: make(map[string]float64), count: make(map[string]int)}
	var lead uint64
	for _, ev := range f.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		d := ev.Dur / 1000
		name := ev.Name
		if strings.HasPrefix(name, telemetry.SpanPCDPoolWorker) {
			name = telemetry.SpanPCDPoolWorker // one name for every worker
		}
		rs.byName[name] += d
		rs.count[name]++
		switch {
		case ev.Args.Parent == 0:
			rs.root = d
		case ev.Name == telemetry.SpanLeadCheck:
			lead = ev.Args.SpanID
			rs.leadSelf += d
		}
	}
	for _, ev := range f.TraceEvents {
		if ev.Ph == "X" && lead != 0 && ev.Args.Parent == lead {
			rs.leadSelf -= ev.Dur / 1000
		}
	}
	return rs, nil
}

// fetchSpans reads the server's trace of one request from its debug
// endpoint.
func (c *client) fetchSpans(ctx context.Context, svc *service, id string) (*requestSpans, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, svc.url+"/debug/traces/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace %s: status %d: %s", id, resp.StatusCode, b)
	}
	return parseSpans(b)
}

// tracedServe breaks the /check path into layers from the in-process
// server's own request traces. It sends the upload schedule to the server
// set up with e over one connection, one request at a time, and after each
// response fetches the request's span tree from GET /debug/traces/{id}:
// store.get, server.lead_check (whose self time is the trace decode),
// server.queue_wait, supervise.trial, core.run with execute and core.collect
// (the PCD pool drain), the PCD pool workers' replays, and store.put. The
// request span they sit in is reconciled against the latency the client
// measured. Then it
// drives a fresh server at the fixed rate for the counts only load shows:
// rejections, generator lateness and the store hit rate.
func tracedServe(ctx context.Context, e *env, res *result) (*servedLayers, error) {
	refs := &references{e: e, byUpload: make(map[int]string)}
	sv := &servedLayers{}
	c := newClient(1)
	var get, decode, replay, put, bodyBytes []float64
	var client, child, root, queue, trial, execute, collect, pcdWorker []float64
	for i, up := range e.schedule {
		o := c.openLoop(ctx, e.svc, e, i, i+1, 0, 0)[0]
		res.check(refs.problem(ctx, o))
		if o.err != nil || o.status != http.StatusOK {
			continue
		}
		rs, err := c.fetchSpans(ctx, e.svc, o.traceID)
		if err != nil {
			return nil, err
		}
		get = append(get, rs.byName[telemetry.SpanStoreGet])
		if rs.count[telemetry.SpanLeadCheck] == 0 {
			sv.hits++
			continue
		}
		// A check the server ran: its trace must hold each step once, or
		// the span limit cut it short.
		for _, name := range []string{telemetry.SpanLeadCheck, telemetry.SpanQueueWait, telemetry.SpanTrial,
			telemetry.SpanCoreRun, telemetry.SpanExecute, telemetry.SpanCoreCollect, telemetry.SpanStorePut} {
			if rs.count[name] != 1 {
				res.invalid(fmt.Sprintf("serve %s: request trace holds %d %s spans, want 1", e.uploads[up].name, rs.count[name], name))
			}
		}
		sv.misses++
		decode = append(decode, rs.leadSelf)
		replay = append(replay, rs.byName[telemetry.SpanCoreRun])
		put = append(put, rs.byName[telemetry.SpanStorePut])
		bodyBytes = append(bodyBytes, float64(len(e.uploads[up].body)))
		client = append(client, ms(o.latency))
		child = append(child, rs.byName[telemetry.SpanStoreGet]+rs.byName[telemetry.SpanLeadCheck])
		root = append(root, rs.root)
		queue = append(queue, rs.byName[telemetry.SpanQueueWait])
		trial = append(trial, rs.byName[telemetry.SpanTrial])
		execute = append(execute, rs.byName[telemetry.SpanExecute])
		collect = append(collect, rs.byName[telemetry.SpanCoreCollect])
		pcdWorker = append(pcdWorker, rs.byName[telemetry.SpanPCDPoolWorker])
	}
	c.close()
	e.svc.stop()
	sv.decodeMs, sv.replayMs, sv.bytes = mean(decode), mean(replay), mean(bodyBytes)
	sv.getMs, sv.putMs = mean(get), mean(put)
	sv.clientMs, sv.childMs, sv.rootMs = mean(client), mean(child), mean(root)
	sv.queueMs, sv.trialMs, sv.executeMs, sv.collectMs = mean(queue), mean(trial), mean(execute), mean(collect)
	sv.pcdWorkerMs = mean(pcdWorker)

	svc, err := startService()
	if err != nil {
		return nil, err
	}
	oc := newClient(runtime.NumCPU())
	defer oc.close()
	outs := oc.openLoop(ctx, svc, e, 0, fixedRequests, serveRate, 0)
	svc.stop()
	var late []float64
	for _, o := range outs {
		res.check(refs.problem(ctx, o))
		late = append(late, ms(o.late))
	}
	snap := svc.srv.Registry().Snapshot()
	sv.rejected = float64(snap.Counter(telemetry.ServerShedQueueFull) + snap.Counter(telemetry.ServerShedDraining) +
		snap.Counter(telemetry.ServerBreakerRejected))
	hits := snap.Counter(telemetry.StoreHits)
	if all := hits + snap.Counter(telemetry.StoreMisses) + snap.Counter(telemetry.StoreCoalesced); all > 0 {
		sv.hitFrac = float64(hits) / float64(all)
	}
	sv.lateMs = mean(late)
	return sv, nil
}

// report prints the service path's breakdown and checks its
// reconciliation.
func (sv *servedLayers) report(w io.Writer, res *result) {
	fmt.Fprintf(w, "serve /check breakdown from the server's request traces (raw ms, means over %d checks run; %d cache hits):\n",
		sv.misses, sv.hits)
	row := func(name string, v float64) { fmt.Fprintf(w, "  %-54s %10.4f ms\n", name, v) }
	row("client latency", sv.clientMs)
	row("  HTTP (client latency - server request span)", sv.clientMs-sv.rootMs)
	row("  server request span", sv.rootMs)
	row("    store.get", sv.getMs)
	row("    server.queue_wait (admission)", sv.queueMs)
	row("    trace decode (server.lead_check self)", sv.decodeMs)
	row("    supervise.trial", sv.trialMs)
	row("      core.run (trace.replay_ms)", sv.replayMs)
	row("        execute", sv.executeMs)
	row("        core.collect (PCD pool drain)", sv.collectMs)
	row("    store.put", sv.putMs)
	row("    handler self (body read+hash, header peek, report)", sv.rootMs-sv.childMs)
	row("PCD pool workers' replays (beside execute)", sv.pcdWorkerMs)
	gap := 0.0
	if sv.clientMs > 0 {
		gap = (sv.clientMs - sv.rootMs) / sv.clientMs
	}
	fmt.Fprintf(w, "  reconciliation: server request span %.4f ms of %.4f ms client latency; %.2f%% outside it (tolerance %.0f%%)\n",
		sv.rootMs, sv.clientMs, 100*gap, 100*serveReconcileTolerance)
	if sv.misses == 0 || gap < 0 || gap > serveReconcileTolerance {
		res.invalid(fmt.Sprintf("serve reconciliation: server request span %.4f ms, client latency %.4f ms over %d checks", sv.rootMs, sv.clientMs, sv.misses))
	}
}
