package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"
)

// runEndToEnd is the untraced run: set-up, the live phase, then the
// service phases, each verdict checked; it reports every end-to-end metric.
func runEndToEnd(ctx context.Context, wl workload, seed int64, budget time.Duration, w io.Writer) (*result, error) {
	res := newResult()
	hs := &hostSpeed{}
	e, setupS, rawSetupS, err := setupTimed(ctx, wl, seed, hs)
	if err != nil {
		return nil, err
	}
	runtime.GC()

	ls := runLive(ctx, e, seed, time.Duration(float64(budget)*liveShare), hs, res)
	ss, err := runServe(ctx, e, hs, res)
	if err != nil {
		return nil, err
	}

	progs := names(e.live)
	var late []float64
	for _, o := range ss.fixed {
		late = append(late, ms(o.late))
	}
	res.set("setup_s", "s", setupS)
	res.set("baseline_ms", "ms", ls.base.combine(progs, median))
	res.set("single_ms", "ms", ls.single.combine(progs, median))
	res.set("multi_ms", "ms", ls.multi.combine(progs, median))
	res.set("velodrome_ms", "ms", ls.velo.combine(progs, median))
	res.set("single_alloc_kb", "KB", ls.alloc.combine(progs, median))
	res.set("serve_serial_ms", "ms", ss.serial.combine(traceNames(wl), median))

	fmt.Fprintf(w, "workload %s, seed %d: live programs %v, upload programs %v\n", wl.name, seed, progs, traceNames(wl))
	fmt.Fprintf(w, "host speed: calibration median %.4f ms over %d runs (min %.4f, max %.4f); times below are scaled to a %.1f ms\n",
		median(hs.all), len(hs.all), quantile(hs.all, 0), quantile(hs.all, 1), refCalibMs)
	fmt.Fprintf(w, "  calibration by the calibration measured around them, and rates the other way; ladder probes print raw rates\n")
	fmt.Fprintf(w, "samples per program: single %d, multi %d, serial cold checks %d; serve requests %d serial, %d at %.0f req/s; tail = p%.0f\n",
		ls.single.minCount(progs), ls.multi.minCount(progs), ss.serial.minCount(traceNames(wl)), serveRequests, len(ss.fixed), serveRate, tailQuantile*100)
	for _, p := range progs {
		fmt.Fprintf(w, "  %-10s baseline %8.3f  single %8.3f (p90 %8.3f)  multi %9.3f  velodrome %8.3f ms  alloc %9.1f KB\n",
			p, median(ls.base[p]), median(ls.single[p]), tail(ls.single[p]), median(ls.multi[p]), median(ls.velo[p]), median(ls.alloc[p]))
		fmt.Fprintf(w, "  %-10s raw      %8.3f  single %8.3f                multi %9.3f  velodrome %8.3f ms\n",
			"", median(ls.raw.base[p]), median(ls.raw.single[p]), median(ls.raw.multi[p]), median(ls.raw.velo[p]))
	}
	fmt.Fprintf(w, "  raw (unscaled) medians: baseline_ms %.4f, single_ms %.4f, multi_ms %.4f, velodrome_ms %.4f, serve_serial_ms %.4f, setup_s %.4f\n",
		ls.raw.base.combine(progs, median), ls.raw.single.combine(progs, median), ls.raw.multi.combine(progs, median),
		ls.raw.velo.combine(progs, median), ss.rawSerial.combine(traceNames(wl), median), rawSetupS)
	for _, p := range traceNames(wl) {
		fmt.Fprintf(w, "  %-10s serial /check cold check %8.3f ms (raw %8.3f) over %d uploads\n",
			p, median(ss.serial[p]), median(ss.rawSerial[p]), len(ss.serial[p]))
	}
	for _, l := range ss.probes {
		fmt.Fprintf(w, "  ladder %s\n", l)
	}
	fmt.Fprintf(w, "  generator lateness (raw): median %.3f ms, max %.3f ms\n", median(late), quantile(late, 1))
	fmt.Fprintf(w, "end-to-end metrics:\n")
	res.printMetrics(w)
	frac := 0.0
	if res.attempted > 0 {
		frac = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "not gated (see rationale.json):\n")
	fmt.Fprintf(w, "  %-24s %14.4f ms\n", "single_tail_ms", ls.single.combine(progs, tail))
	fmt.Fprintf(w, "  %-24s %14.4f ms\n", "serve_ms", median(ss.latency))
	fmt.Fprintf(w, "  %-24s %14.4f ms\n", "serve_tail_ms", tail(ss.latency))
	fmt.Fprintf(w, "  %-24s %14.4f req/s\n", "serve_max_rps", ss.maxRPS)
	fmt.Fprintf(w, "  %-24s %14.4f ratio (%d of %d checks)\n", "check_fail_frac", frac, res.failed, res.attempted)
	m := res.metrics
	fmt.Fprintf(w, "ratios (not gated): single/baseline %.2fx, multi/baseline %.2fx, velodrome/baseline %.2fx, single/velodrome %.2fx\n",
		m["single_ms"].Value/m["baseline_ms"].Value, m["multi_ms"].Value/m["baseline_ms"].Value,
		m["velodrome_ms"].Value/m["baseline_ms"].Value, m["single_ms"].Value/m["velodrome_ms"].Value)
	return res, nil
}

func traceNames(wl workload) []string {
	out := make([]string, len(wl.traces))
	for i, p := range wl.traces {
		out[i] = p.name
	}
	return out
}
