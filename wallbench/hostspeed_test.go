package main

import (
	"context"
	"testing"
	"time"

	"doublechecker/internal/vm"
)

// plantedCost forwards every event and, at program end, busy-waits for spin
// and allocates garbage bytes of short-lived memory: a known cost planted
// in a check.
type plantedCost struct {
	vm.Instrumentation
	spin    time.Duration
	garbage int
}

var plantSink []byte

func (p *plantedCost) ProgramEnd() {
	p.Instrumentation.ProgramEnd()
	for t0 := time.Now(); time.Since(t0) < p.spin; {
	}
	for i := 0; i < p.garbage/4096; i++ {
		plantSink = make([]byte, 4096)
	}
}

// liveSingle runs the live phase on e with the given plant and returns the
// scaled single-run median of its program, the calibration median and the
// host-speed factor of the run.
func liveSingle(t *testing.T, e *env, plant *plantedCost) (single, calib, factor float64) {
	t.Helper()
	s := e.live[0]
	s.plant = nil
	if plant != nil {
		s.plant = func(inner vm.Instrumentation) vm.Instrumentation {
			p := *plant
			p.Instrumentation = inner
			return &p
		}
	}
	defer func() { s.plant = nil }()
	hs := &hostSpeed{}
	res := newResult()
	ls := runLive(context.Background(), e, 1, 2*time.Second, hs, res)
	if !res.correct || res.failed > 0 {
		t.Fatalf("live phase failed: %v", res.failures)
	}
	return median(ls.single[s.name]), median(hs.all), refCalibMs / median(hs.all)
}

// A fixed slowdown planted in the single-run check survives the host-speed
// scaling: scaled single_ms rises by the planted time, scaled alike.
func TestPlantedSlowdownShows(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the live phase twice")
	}
	e := tinyEnv(t)
	const spin = 3 * time.Millisecond
	base, _, _ := liveSingle(t, e, nil)
	slow, _, f := liveSingle(t, e, &plantedCost{spin: spin})
	want := ms(spin) * f
	if d := slow - base; d < 0.6*want || d > 1.5*want {
		t.Errorf("planted %.3f ms (scaled): single-run median rose by %.3f ms (%.3f -> %.3f)", want, d, base, slow)
	}
}

// Garbage a check leaves behind is collected before the calibration, not
// inside it: checks that allocate far more leave the calibration as it was.
func TestCheckGarbageSparesCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the live phase twice")
	}
	e := tinyEnv(t)
	_, clean, _ := liveSingle(t, e, nil)
	_, dirty, _ := liveSingle(t, e, &plantedCost{garbage: 16 << 20})
	if r := dirty / clean; r > 1.3 || r < 1/1.3 {
		t.Errorf("calibration median %.4f ms with 16 MB of garbage per check, %.4f ms without (ratio %.2f)", dirty, clean, r)
	}
}
