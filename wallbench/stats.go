package main

import (
	"math"
	"sort"
	"time"
)

// tailQuantile is the tail percentile every latency metric reports. Each
// sample set that feeds it holds at least minTailSamples values, so at
// least ten samples lie beyond it.
const (
	tailQuantile   = 0.90
	minTailSamples = 100
)

// ms converts a duration to float milliseconds with full precision.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean combines per-program figures the way Figure 7 combines
// benchmarks. Non-positive inputs make the result NaN, which the result
// check rejects.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// samples holds per-program sample sets of one quantity.
type samples map[string][]float64

func (s samples) add(prog string, v float64) { s[prog] = append(s[prog], v) }

// combine applies f to each program's samples, in the given program
// order, and takes the geometric mean of the results.
func (s samples) combine(progs []string, f func([]float64) float64) float64 {
	vals := make([]float64, 0, len(progs))
	for _, p := range progs {
		vals = append(vals, f(s[p]))
	}
	return geomean(vals)
}

func (s samples) minCount(progs []string) int {
	n := -1
	for _, p := range progs {
		if c := len(s[p]); n < 0 || c < n {
			n = c
		}
	}
	return n
}

func tail(xs []float64) float64 { return quantile(xs, tailQuantile) }
