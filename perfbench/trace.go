package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/instrument"
)

// spans records the benchmark's own wall-clock spans around the public
// calls it makes into the program. Events go to an instrument.Tracer (so
// tracecheck and tracepath read the file), kept in memory until the run
// ends; the recorder also sums each layer's self time: a span's duration
// minus the durations of its children. A nil *spans records nothing, which
// is how untraced runs call the same code.
type spans struct {
	tr *instrument.Tracer

	mu     sync.Mutex
	self   map[string]time.Duration // layer -> summed self time
	nspans int
}

// span is an open span. Children are attributed to it through parent.
type span struct {
	rec    *spans
	ts     instrument.Span
	layer  string
	job    string
	t0     time.Time
	parent *span
	child  time.Duration // guarded by rec.mu
}

func newSpans() *spans {
	tr := instrument.NewTracer()
	tr.SetProcessName(instrument.PidWall, "perfbench (wall clock)")
	return &spans{tr: tr, self: map[string]time.Duration{}}
}

// begin opens a span named name on track tid, attributed to layer and, when
// parent is non-nil, nested under it. job tags every span of one job with
// one id.
func (s *spans) begin(tid int, name, layer, job string, parent *span) *span {
	if s == nil {
		return nil
	}
	return &span{
		rec: s, ts: s.tr.Begin(instrument.PidWall, tid, name, layer),
		layer: layer, job: job, t0: time.Now(), parent: parent,
	}
}

// end closes the span and books its self time.
func (sp *span) end() {
	if sp == nil {
		return
	}
	d := time.Since(sp.t0)
	var args map[string]any
	if sp.job != "" {
		args = map[string]any{"job": sp.job}
	}
	sp.ts.EndWith(args)
	s := sp.rec
	s.mu.Lock()
	s.nspans++
	s.self[sp.layer] += d - sp.child
	if sp.parent != nil {
		sp.parent.child += d
	}
	s.mu.Unlock()
}

// selfMS returns the summed self time of layer in milliseconds.
func (s *spans) selfMS(layer string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.self[layer]) / float64(time.Millisecond)
}

// write validates the trace and stores it under dir, returning the path.
func (s *spans) write(dir, name string) (string, error) {
	var buf bytes.Buffer
	if err := s.tr.WriteJSON(&buf); err != nil {
		return "", err
	}
	if err := instrument.ValidateChromeTrace(buf.Bytes(), 0); err != nil {
		return "", fmt.Errorf("trace does not validate: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}

// setTraceOverhead reports the p50 of the workload's unit of work (a step
// on the channels, a job on semflowd) with tracing on, and its excess over
// the untraced p50 measured in the same run.
func setTraceOverhead(rep *report, untraced, traced []float64) {
	rep.set("trace.op_ms_p50", median(traced), len(traced))
	rep.set("trace.overhead_ms", median(traced)-median(untraced), len(traced))
}

// finishTrace reports span counts and per-job self times and writes the
// trace file.
func finishTrace(rep *report, sp *spans, workload string, tracedJobs float64) {
	for _, l := range []string{"build", "step", "parrun", "http", "client"} {
		rep.set("self."+l+"_ms_per_job", sp.selfMS(l)/tracedJobs, int(tracedJobs))
	}
	sp.mu.Lock()
	rep.set("trace.spans", float64(sp.nspans), 1)
	sp.mu.Unlock()
	path, err := sp.write(traceDir, workload+".json")
	if err != nil {
		rep.fail("trace: %v", err)
		return
	}
	rep.note("trace written to %s", path)
}
