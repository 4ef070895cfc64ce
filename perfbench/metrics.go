package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/instrument"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ Name, Unit string }

// endToEnd are the metrics a user of the solver or the service sees; an
// untraced run prints all of them on every workload. Wall seconds (s, ms)
// and modeled ASCI-Red seconds (virtual_s) are separate units and never
// mixed in one metric. Every wall time here is scaled to the nominal host
// speed (hostref.go).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"step_ms_mean", "ms"},
	{"step_ms_p90", "ms"},
	{"virtual_s_per_step", "virtual_s"},
	{"result_err", "1"},
	{"job_latency_ms_p50", "ms"},
	{"job_latency_ms_p90", "ms"},
	{"jobs_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the single-layer metrics of a traced run. A layer the
// workload does not exercise reports 0 (see README.md for the table).
var perLayer = []metricSpec{
	{"ns.convect_share", "frac"},
	{"ns.viscous_share", "frac"},
	{"ns.pressure_share", "frac"},
	{"ns.filter_share", "frac"},
	{"ns.divergence_us", "us"},
	{"ns.gradient_t_us", "us"},
	{"ns.checkpoint_encode_ms", "ms"},
	{"solver.pressure_iters_per_step", "count"},
	{"solver.viscous_iters_per_step", "count"},
	{"solver.projection_basis_mean", "count"},
	{"solver.pressure_cg_ms_per_step", "ms"},
	{"solver.precond_table_hit_frac", "frac"},
	{"la.mul_ns", "ns"},
	{"la.mul_abt_ns", "ns"},
	{"la.mul_gflops", "GFLOP/s"},
	{"la.mul_abt_gflops", "GFLOP/s"},
	{"la.mul_bytes", "B"},
	{"la.mul_abt_bytes", "B"},
	{"sem.flops_per_step", "count"},
	{"sem.helmholtz_us", "us"},
	{"sem.assemble_us", "us"},
	{"schwarz.apply_us", "us"},
	{"coarse.xxt_solve_us", "us"},
	{"coarse.xxt_factor_s", "s"},
	{"comm.msgs_per_step", "count"},
	{"comm.bytes_per_step", "B"},
	{"comm.allreduce_calls_per_step", "count"},
	{"comm.allreduce_us", "us"},
	{"gs.par_apply_us", "us"},
	{"parrun.phase_virtual_s.convect", "virtual_s"},
	{"parrun.phase_virtual_s.viscous", "virtual_s"},
	{"parrun.phase_virtual_s.pressure", "virtual_s"},
	{"parrun.phase_virtual_s.filter", "virtual_s"},
	{"parrun.cut_edges", "count"},
	{"session.submit_ms_p50", "ms"},
	{"session.queue_wait_ms_p50", "ms"},
	{"http.status_ms_p50", "ms"},
	{"http.history_ms_p50", "ms"},
	{"store.put_ms", "ms"},
	{"store.checkpoint_bytes", "B"},
	{"runtime.goroutines_leaked", "count"},
	{"runtime.allocs_per_step", "count"},
	{"failed_step_frac", "frac"},
	{"failed_job_frac", "frac"},
	{"trace.op_ms_p50", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.spans", "count"},
	{"self.build_ms_per_job", "ms"},
	{"self.step_ms_per_job", "ms"},
	{"self.parrun_ms_per_job", "ms"},
	{"self.http_ms_per_job", "ms"},
	{"self.client_ms_per_job", "ms"},
}

// sample is one metric value with the number of samples behind it.
type sample struct {
	v float64
	n int
}

// report collects one run's metrics, its operation counts and the
// correctness verdict.
type report struct {
	values    map[string]sample
	attempted int // timed operations (steps or jobs)
	failed    int // operations that returned an error or were lost
	problems  []string
	notes     []string
}

func newReport() *report { return &report{values: map[string]sample{}} }

// set records metric name with n samples behind it.
func (r *report) set(name string, v float64, n int) { r.values[name] = sample{v, n} }

// fail marks the run incorrect.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.problems) == 0 }

// note adds a line printed with the result.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// specsFor is the metric list a run prints: end-to-end untraced, per-layer
// traced.
func specsFor(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints a human-readable table (value, unit, samples) followed by
// the one-line JSON result. It refuses to print a result that misses a
// declared metric, carries an undeclared one, or holds a non-finite value.
func (r *report) emit(w io.Writer, traced bool) error {
	specs := specsFor(traced)
	out := jsonResult{
		Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]jsonMetric, len(specs)),
	}
	declared := map[string]bool{}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tsamples\tnote\t")
	for _, s := range specs {
		declared[s.Name] = true
		v, ok := r.values[s.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return fmt.Errorf("metric %s is %v", s.Name, v.v)
		}
		out.Metrics[s.Name] = jsonMetric{Value: v.v, Unit: s.Unit}
		note := ""
		if strings.HasSuffix(s.Name, "_p90") && tailSamples(v.n, 0.9) < 10 {
			note = "unresolved: fewer than 10 samples beyond p90"
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\t%s\t\n", s.Name, v.v, s.Unit, v.n, note)
	}
	var extra []string
	for name := range r.values {
		if !declared[name] && !declaredIn(specsFor(!traced), name) {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("undeclared metrics %v", extra)
	}
	tw.Flush()
	// Values measured on the way that belong to the other list, such as
	// the convergence-failure fractions of an untraced run.
	var also []string
	for name := range r.values {
		if !declared[name] {
			also = append(also, name)
		}
	}
	sort.Strings(also)
	for _, name := range also {
		fmt.Fprintf(w, "also measured: %s = %.6g (%d samples)\n", name, r.values[name].v, r.values[name].n)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", r.attempted, r.failed, r.correct())
	for _, p := range r.problems {
		fmt.Fprintf(w, "INCORRECT: %s\n", p)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func declaredIn(specs []metricSpec, name string) bool {
	for _, s := range specs {
		if s.Name == name {
			return true
		}
	}
	return false
}

// zeroUnexercised sets to 0 every per-layer metric matching a prefix that
// the workload has not set: the workload does not run that layer.
func zeroUnexercised(rep *report, prefixes ...string) {
	for _, s := range perLayer {
		if _, ok := rep.values[s.Name]; ok {
			continue
		}
		for _, p := range prefixes {
			if len(s.Name) >= len(p) && s.Name[:len(p)] == p {
				rep.set(s.Name, 0, 0)
			}
		}
	}
}

// phaseNames are the four stepper phases AttachMetrics times.
var phaseNames = []string{"convect", "viscous", "pressure", "filter"}

// phaseTimes holds the four phase timers and the pressure CG timer.
type phaseTimes [5]time.Duration

func readPhases(reg *instrument.Registry) phaseTimes {
	var p phaseTimes
	if reg == nil {
		return p
	}
	for i, n := range phaseNames {
		p[i] = reg.Timer("ns/" + n).Total()
	}
	p[4] = reg.Timer("solver/pressure.cg").Total()
	return p
}

// add accumulates the interval end-start.
func (p *phaseTimes) add(end, start phaseTimes) {
	for i := range p {
		p[i] += end[i] - start[i]
	}
}

// report sets each phase's share of the four phases' sum.
func (p phaseTimes) report(rep *report, n int) {
	tot := p[0] + p[1] + p[2] + p[3]
	for i, name := range phaseNames {
		rep.set("ns."+name+"_share", float64(p[i])/float64(tot), n)
	}
}
