package main

import (
	"math"
	"sort"

	"repro/internal/ns"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "type 7" rule of R and NumPy). xs is not modified.
// It returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailSamples is the number of samples of an n-sample run that lie beyond
// its q-quantile. A percentile is only reported as resolved when at least
// ten samples lie beyond it, so p90 needs at least 100 samples.
func tailSamples(n int, q float64) int {
	return int(math.Floor(float64(n)*(1-q) + 1e-9))
}

// frac is failed/attempted, 0 for an empty run.
func frac(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// countUnconverged counts the steps whose pressure or viscous solve stopped
// short of its tolerance (at the iteration cap or a breakdown).
func countUnconverged(stats []ns.StepStats) int {
	n := 0
	for _, st := range stats {
		if !st.PressureConverged || !st.ViscousConverged {
			n++
		}
	}
	return n
}
