package main

import (
	"math"
	"testing"
	"time"
)

// TestHostClockScalesByNearbySamples checks that an interval is scaled by
// the reference samples taken around it, not by the run's others, and
// that the reference time spent inside it is left out.
func TestHostClockScalesByNearbySamples(t *testing.T) {
	base := time.Unix(1000, 0)
	h := &hostClock{}
	// A fast second (references at the nominal time), then a slow one
	// (twice the nominal time), sampled every 100 ms.
	for i := 0; i < 10; i++ {
		h.add(refSample{base.Add(time.Duration(i) * 100 * time.Millisecond), refNominal})
		h.add(refSample{base.Add(time.Second + time.Duration(i)*100*time.Millisecond), 2 * refNominal})
	}
	fast0, fast1 := base.Add(100*time.Millisecond), base.Add(200*time.Millisecond)
	if got := h.scale(fast0, fast1); got != 1 {
		t.Errorf("scale in the fast second = %v, want 1", got)
	}
	slow0 := base.Add(1500 * time.Millisecond)
	slow1 := slow0.Add(20 * time.Millisecond)
	if got := h.scale(slow0, slow1); got != 0.5 {
		t.Errorf("scale in the slow second = %v, want 0.5", got)
	}
	// 20 ms of wall, 4 ms of it in reference runs: 16 ms at half speed.
	if got := h.ms(slow0, slow1, 4*time.Millisecond); math.Abs(got-8) > 1e-9 {
		t.Errorf("normalized ms = %v, want 8", got)
	}
	// The median of ten samples at the nominal time and ten at twice it
	// is 1.5 times the nominal time.
	if got := h.runScale(); math.Abs(got-1/1.5) > 1e-12 {
		t.Errorf("run scale = %v, want %v", got, 1/1.5)
	}
}

// TestHostClockWidensToNearestSamples checks the fallback when fewer than
// refMinSamples samples lie near an interval: the nearest ones on either
// side are used.
func TestHostClockWidensToNearestSamples(t *testing.T) {
	base := time.Unix(1000, 0)
	h := &hostClock{}
	for i := 0; i < 5; i++ {
		h.add(refSample{base.Add(time.Duration(i) * time.Millisecond), 4 * refNominal})
		h.add(refSample{base.Add(10*time.Second + time.Duration(i)*time.Millisecond), refNominal})
	}
	// Five seconds from either group: the five nearest come from the
	// later group, which is nearer the interval's end.
	if got := h.scale(base.Add(5*time.Second), base.Add(9*time.Second)); got != 1 {
		t.Errorf("scale = %v, want 1 (from the nearer group)", got)
	}
	if got := (&hostClock{}).scale(base, base.Add(time.Second)); got != 1 {
		t.Errorf("scale without samples = %v, want 1", got)
	}
}
