package main

import (
	"runtime"
	"time"
)

// A shared host changes speed from one minute to the next: on a 2-vCPU
// x86-64 guest whose cores other guests use, the uninstrumented VM run
// and every check mode sped up and slowed down together by up to 2x. A
// fixed workload of the benchmark's own tracks that speed: timed next to
// the checks, it scales each timing to a host on which it takes
// refCalibMs. Each batch of calibrations starts with a forced collection,
// so garbage the checks left behind is not collected inside the
// calibration, and a change that makes checks allocate more does not slow
// the calibration down with them. The readable report prints raw medians
// next to the scaled ones.

// refCalibMs is the calibration time the normalized timings refer to.
const refCalibMs = 1.0

// calibRing is how many recent calibrations the running factor is the
// median of: enough to smooth the calibration's own noise, few enough to
// follow the host within a couple of seconds.
const calibRing = 9

type calibNode struct {
	next *calibNode
	v    int
}

// calibSink keeps the compiler from discarding the calibration's work.
var calibSink int

// calibrate runs the calibration workload once — a small bytecode
// interpreter over a register file, pointer chasing through a ring, map
// updates and small allocations, about 1 ms on the reference host — and
// returns its wall time in ms.
func calibrate() float64 {
	t0 := time.Now()
	code := make([]byte, 4096)
	for i := range code {
		code[i] = byte((i*7919 + 13) % 5)
	}
	var regs [8]int
	ring := make([]calibNode, 512)
	for i := range ring {
		ring[i].next = &ring[(i*37+11)%len(ring)]
		ring[i].v = i
	}
	m := make(map[int]int, 256)
	p := &ring[0]
	var keep []*calibNode
	for rep := 0; rep < 30; rep++ {
		for pc, op := range code {
			r := pc & 7
			switch op {
			case 0:
				regs[r] += regs[(r+1)&7] + pc
			case 1:
				p = p.next
				regs[r] ^= p.v
			case 2:
				m[regs[r]&255]++
			case 3:
				if regs[r]&1 == 0 {
					regs[r] >>= 1
				} else {
					regs[r] = regs[r]*3 + 1
				}
			case 4:
				if pc&63 == 0 {
					keep = append(keep, &calibNode{v: regs[r]})
				}
			}
		}
	}
	calibSink += regs[0] + len(m) + len(keep)
	return ms(time.Since(t0))
}

// hostSpeed follows the host's speed through recent calibrations.
type hostSpeed struct {
	recent []float64 // the last calibRing calibration times, ms
	next   int
	all    []float64 // every calibration, for the report
}

// sample runs n calibrations after a forced collection.
func (h *hostSpeed) sample(n int) {
	runtime.GC()
	for i := 0; i < n; i++ {
		c := calibrate()
		h.all = append(h.all, c)
		if len(h.recent) < calibRing {
			h.recent = append(h.recent, c)
		} else {
			h.recent[h.next] = c
			h.next = (h.next + 1) % calibRing
		}
	}
}

// factor converts a wall time measured now to the reference host's speed.
func (h *hostSpeed) factor() float64 { return refCalibMs / median(h.recent) }

// around runs phase between two sets of calibrations and returns the factor
// for the phase as a whole.
func (h *hostSpeed) around(phase func()) float64 {
	from := len(h.all)
	h.sample(calibRing)
	phase()
	h.sample(calibRing)
	return refCalibMs / median(h.all[from:])
}
