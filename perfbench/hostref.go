package main

import (
	"sort"
	"sync"
	"time"
)

// Host-speed normalization.
//
// The hosts this benchmark runs on are shared: the speed a process gets
// swings by up to 2× for tens of seconds at a time, and CPU time follows
// wall time, so it is contention for the core, not time stolen from the
// VM. No statistic taken inside a 30 s run averages that away. The
// benchmark therefore runs a fixed reference kernel of its own, between
// the operations it times and never inside them, and reports every
// end-to-end wall time scaled to a nominal host speed:
//
//	normalized = wall × refNominal / (median reference time around the interval)
//
// The reference kernel is this file's code, not the repository's, so a
// change to the program moves the timed operations and leaves the
// reference alone. README.md gives the measured effect.

// refNominal is the reference kernel's time at the nominal host speed: its
// median on an idle 2-core Intel Xeon VM. Only ratios to it are reported.
const refNominal = 400 * time.Microsecond

// refWindow widens the interval whose reference samples scale a timing;
// refMinSamples is the fewest samples a scale rests on.
const (
	refWindow     = 300 * time.Millisecond
	refMinSamples = 5
)

// refKernel is the fixed reference work: small dense matrix products (the
// shape of a tensor-product operator apply) and a permuted gather-add over
// a 256 KiB array (the shape of a gather-scatter). Each goroutine that
// probes owns one; it is not safe for concurrent use.
type refKernel struct {
	a, b, c [100]float64
	big     []float64
	perm    []int32
}

var refSink float64

func newRefKernel() *refKernel {
	const n = 1 << 15
	k := &refKernel{big: make([]float64, n), perm: make([]int32, n)}
	for i := range k.a {
		k.a[i] = float64(i%7) * 0.1
		k.b[i] = float64(i%5) * 0.2
	}
	for i := range k.perm {
		k.perm[i] = int32((i * 7919) % n)
		k.big[i] = float64(i%11) * 0.01
	}
	return k
}

// run does the reference work once and returns its wall time.
func (k *refKernel) run() time.Duration {
	t0 := time.Now()
	for it := 0; it < 200; it++ {
		for i := 0; i < 10; i++ {
			for j := 0; j < 10; j++ {
				s := k.c[i*10+j]
				for l := 0; l < 10; l++ {
					s += k.a[i*10+l] * k.b[l*10+j]
				}
				k.c[i*10+j] = s * 0.5
			}
		}
	}
	for it := 0; it < 2; it++ {
		for i, p := range k.perm {
			k.big[p] += k.big[i] * 0.5
		}
	}
	d := time.Since(t0)
	refSink += k.c[37] + k.big[99]
	return d
}

// refSample is one reference run: its midpoint and its duration.
type refSample struct {
	at time.Time
	d  time.Duration
}

// hostClock collects reference samples from any number of goroutines and
// scales wall intervals by the ones taken around them.
type hostClock struct {
	mu      sync.Mutex
	samples []refSample
	sorted  bool
	spent   time.Duration // total time spent in reference runs
}

// newHostClock returns a clock with room for more samples than a run
// takes, so that probing between timed steps does not allocate.
func newHostClock() *hostClock { return &hostClock{samples: make([]refSample, 0, 1<<13)} }

// probe runs k n times and records each run.
func (h *hostClock) probe(k *refKernel, n int) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		d := k.run()
		h.add(refSample{t0.Add(d / 2), d})
	}
}

func (h *hostClock) add(s refSample) {
	h.mu.Lock()
	h.samples = append(h.samples, s)
	h.sorted = false
	h.spent += s.d
	h.mu.Unlock()
}

// scale is refNominal over the median reference time taken within
// refWindow of [t0, t1], or over the refMinSamples samples nearest the
// interval when fewer lie there. It is 1 when there are no samples.
func (h *hostClock) scale(t0, t1 time.Time) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n == 0 {
		return 1
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i].at.Before(h.samples[j].at) })
		h.sorted = true
	}
	lo := sort.Search(n, func(i int) bool { return !h.samples[i].at.Before(t0.Add(-refWindow)) })
	hi := sort.Search(n, func(i int) bool { return h.samples[i].at.After(t1.Add(refWindow)) })
	// Widen to the nearest samples on either side until there are enough.
	for hi-lo < min(refMinSamples, n) {
		switch {
		case lo == 0:
			hi++
		case hi == n:
			lo--
		case t0.Sub(h.samples[lo-1].at) <= h.samples[hi].at.Sub(t1):
			lo--
		default:
			hi++
		}
	}
	ds := make([]float64, 0, hi-lo)
	for _, s := range h.samples[lo:hi] {
		ds = append(ds, float64(s.d))
	}
	return float64(refNominal) / median(ds)
}

// ms is the interval [t0, t1], less excluded time spent inside it on
// reference runs, in normalized milliseconds.
func (h *hostClock) ms(t0, t1 time.Time, excluded time.Duration) float64 {
	return (t1.Sub(t0) - excluded).Seconds() * 1e3 * h.scale(t0, t1)
}

// runScale is the scale over every sample taken: the whole run's host
// speed relative to nominal.
func (h *hostClock) runScale() float64 {
	h.mu.Lock()
	ds := make([]float64, len(h.samples))
	for i, s := range h.samples {
		ds[i] = float64(s.d)
	}
	h.mu.Unlock()
	if len(ds) == 0 {
		return 1
	}
	return float64(refNominal) / median(ds)
}

// spentInRefs is the total time spent in reference runs so far.
func (h *hostClock) spentInRefs() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.spent
}

// interval is one timed operation: its wall bounds and the time spent
// inside them on reference runs, which the operation does not own.
type interval struct {
	t0, t1   time.Time
	excluded time.Duration
}

// normMS is each interval in normalized milliseconds.
func (h *hostClock) normMS(ivs []interval) []float64 {
	out := make([]float64, len(ivs))
	for i, iv := range ivs {
		out[i] = h.ms(iv.t0, iv.t1, iv.excluded)
	}
	return out
}

// wallMS is each interval in plain wall milliseconds, for the notes.
func wallMS(ivs []interval) []float64 {
	out := make([]float64, len(ivs))
	for i, iv := range ivs {
		out[i] = (iv.t1.Sub(iv.t0) - iv.excluded).Seconds() * 1e3
	}
	return out
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// setWallTimes sets the wall-time end-to-end metrics of a run whose jobs
// ran back to back: set-up, steady-state steps and whole jobs, each scaled
// to the nominal host speed. The unscaled figures go in a note.
func setWallTimes(rep *report, clock *hostClock, setups, steps, jobs []interval) {
	su, st, jb := clock.normMS(setups), clock.normMS(steps), clock.normMS(jobs)
	rep.set("setup_s", median(su)/1e3, len(su))
	rep.set("step_ms_mean", mean(st), len(st))
	rep.set("step_ms_p90", quantile(st, 0.9), len(st))
	rep.set("job_latency_ms_p50", median(jb), len(jb))
	rep.set("job_latency_ms_p90", quantile(jb, 0.9), len(jb))
	rep.set("jobs_per_s", float64(len(jb))/(sum(jb)/1e3), len(jb))
	ws := wallMS(steps)
	rep.note("scaled: step p50 %.4g ms", median(st))
	rep.note("unscaled wall (host scale %.3f): setup %.4g s, step mean %.4g ms, p50 %.4g ms, p90 %.4g ms, job p50 %.4g ms",
		clock.runScale(), median(wallMS(setups))/1e3, mean(ws), median(ws), quantile(ws, 0.9), median(wallMS(jobs)))
}
