package main

import (
	"math"
	"testing"

	"repro/internal/ns"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample should be NaN")
	}
}

func TestTailSamples(t *testing.T) {
	// p90 is resolved (ten samples beyond it) from 100 samples on.
	for _, c := range []struct{ n, want int }{{100, 10}, {99, 9}, {10, 1}, {283, 28}} {
		if got := tailSamples(c.n, 0.9); got != c.want {
			t.Errorf("tailSamples(%d, 0.9) = %d, want %d", c.n, got, c.want)
		}
	}
	if got := tailSamples(20, 0.5); got != 10 {
		t.Errorf("tailSamples(20, 0.5) = %d, want 10", got)
	}
}

func TestFailureFractions(t *testing.T) {
	stats := []ns.StepStats{
		{PressureConverged: false, ViscousConverged: true}, // pressure cap
		{PressureConverged: true, ViscousConverged: false}, // viscous stall
		{PressureConverged: false, ViscousConverged: false},
		{PressureConverged: true, ViscousConverged: true},
	}
	if got := countUnconverged(stats); got != 3 {
		t.Errorf("countUnconverged = %d, want 3", got)
	}
	if got := frac(countUnconverged(stats), len(stats)); got != 0.75 {
		t.Errorf("failed fraction = %v, want 0.75", got)
	}
	if got := frac(2, 64); got != 0.03125 {
		t.Errorf("frac(2, 64) = %v", got)
	}
	if got := frac(0, 0); got != 0 {
		t.Errorf("frac of an empty run = %v, want 0", got)
	}
}
