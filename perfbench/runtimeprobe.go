package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

const (
	heapObjectsMetric = "/memory/classes/heap/objects:bytes"
	allocsMetric      = "/gc/heap/allocs:objects"
)

// probe reads one runtime/metrics value into a sample it reuses, so that
// reading allocates nothing. A probe is not safe for concurrent use.
type probe []metrics.Sample

func newProbe(name string) probe { return probe{{Name: name}} }

func (p probe) read() uint64 {
	metrics.Read(p)
	if p[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return p[0].Value.Uint64()
}

var allocProbe = newProbe(allocsMetric)

// heapAllocs is the process's cumulative count of heap allocations. Calls
// must not overlap: they share one probe.
func heapAllocs() uint64 { return allocProbe.read() }

// heapPeak samples the bytes held by live and not-yet-swept heap objects
// every few milliseconds and keeps the maximum. runtime/metrics reads do
// not stop the world, so the sampler does not perturb the timed code.
type heapPeak struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	max   uint64 // written by the sampler until stop, then by stopAndRead
	probe probe
}

func startHeapPeak() *heapPeak {
	pr := newProbe(heapObjectsMetric)
	h := &heapPeak{stop: make(chan struct{}), max: pr.read(), probe: pr}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if v := pr.read(); v > h.max {
					h.max = v
				}
			}
		}
	}()
	return h
}

// stopAndRead stops the sampler and returns the peak in MB (2^20 bytes).
func (h *heapPeak) stopAndRead() float64 {
	close(h.stop)
	h.wg.Wait()
	if v := h.probe.read(); v > h.max {
		h.max = v
	}
	return float64(h.max) / (1 << 20)
}
