package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/comm"
	"repro/internal/flowcases"
	"repro/internal/instrument"
	"repro/internal/ns"
)

// Channel jobs: the Table 1 case from a cold build through the 64-step
// growth-rate window of TestChannelGrowthRateMatchesLinearTheory. Steps
// after stepWarmup (the warm-up bench_test.go's stepping benchmarks use:
// BDF ramp, scratch sizing and one projection-basis cycle) are the
// steady-state step samples. Job j steps amplitude j mod serialAmplitudes.
const (
	channelJobSteps  = 64
	stepWarmup       = 24
	growthGate       = 0.05 // relative growth-rate error allowed at N=9
	serialAmplitudes = 8
	refEvery         = 4 // steps between reference runs
)

func serialChannelConfig(eps float64) flowcases.ChannelConfig {
	return flowcases.ChannelConfig{
		Re: 7500, Alpha: 1, N: 9, Dt: 0.003125, Order: 2, Workers: 1, Eps: eps,
	}
}

// stepSig is the deterministic record of one step: every job of a run on
// the same amplitude must repeat it exactly.
type stepSig struct {
	pIters, proj int
	hIters       [3]int
	pConv, vConv bool
	flops        int64
}

// tracedJob reports whether job j of a traced run records spans. Whole
// cycles over the k inputs alternate, so the untraced and traced halves
// see the same inputs and the tracing overhead is measured in one process.
func tracedJob(traced bool, j, k int) bool { return traced && (j/k)%2 == 1 }

// minJobs is the number of jobs a run makes whatever its time: one cycle
// over the k inputs, two in a traced run (one untraced, one traced).
func minJobs(traced bool, k int) int {
	if traced {
		return 2 * k
	}
	return k
}

// runChannelSerial steps the Table 1 channel (Re 7500, α=1, K=5×3, N=9,
// Δt=0.003125, BDF2, Schwarz(FDM)+XXT, one worker) in back-to-back jobs
// until the measuring time is used up and every amplitude has run.
func runChannelSerial(o options, rep *report) error {
	amps := channelAmplitudes(o.seed, serialAmplitudes)
	var sp *spans
	if o.traced {
		sp = newSpans()
	}
	heap := startHeapPeak()
	clock, kern := newHostClock(), newRefKernel()
	var (
		setups, steps, tracedSteps, jobs  []interval
		growthErr                         []float64
		failedSteps, allSteps, failedJobs int
		refs                              = make([][]stepSig, len(amps))
		allocs                            uint64
		reg                               *instrument.Registry
		last                              *ns.Solver
		phases                            phaseTimes
		tracedJobs, untracedJobs          int
	)
	if o.traced {
		reg = instrument.New()
	}
	start := time.Now()
	for j := 0; j < minJobs(o.traced, len(amps)) || time.Since(start) < o.duration; j++ {
		var jsp *spans
		if tracedJob(o.traced, j, len(amps)) {
			jsp = sp
		}
		a := j % len(amps)
		id := fmt.Sprintf("job%d", j)
		// Each job starts on a collected heap, so that its peak does not
		// depend on when the previous job's garbage was marked.
		runtime.GC()
		clock.probe(kern, 2)
		t0 := time.Now()
		job := jsp.begin(0, "channel.job", "client", id, nil)
		b := jsp.begin(0, "flowcases.Channel", "build", id, job)
		s, osr, err := flowcases.Channel(serialChannelConfig(amps[a]))
		b.end()
		setups = append(setups, interval{t0: t0, t1: time.Now()})
		if err != nil {
			return fmt.Errorf("build: %w", err)
		}
		if jsp != nil {
			s.AttachMetrics(reg)
		}
		e0, tt0 := flowcases.PerturbationEnergy(s), s.Time()
		var sigs []stepSig
		var stats []ns.StepStats
		var a0 uint64
		var ph0 phaseTimes
		refs0 := clock.spentInRefs()
		for i := 1; i <= channelJobSteps; i++ {
			if i%refEvery == 0 {
				clock.probe(kern, 1)
			}
			if i == stepWarmup+1 {
				a0, ph0 = heapAllocs(), readPhases(reg)
			}
			st0 := time.Now()
			ss := jsp.begin(0, "ns.Step", "step", id, job)
			st, err := s.Step()
			ss.end()
			d := interval{t0: st0, t1: time.Now()}
			allSteps++
			rep.attempted++
			if err != nil {
				rep.failed++
				failedSteps++
				break
			}
			stats = append(stats, st)
			if i > stepWarmup {
				if jsp != nil {
					tracedSteps = append(tracedSteps, d)
				} else {
					steps = append(steps, d)
				}
			}
			sigs = append(sigs, stepSig{st.PressureIters, st.ProjectionBasis, st.HelmholtzIters,
				st.PressureConverged, st.ViscousConverged, s.Disc().Flops()})
		}
		if len(sigs) == channelJobSteps {
			if jsp == nil {
				allocs += heapAllocs() - a0
				untracedJobs++
			} else {
				phases.add(readPhases(reg), ph0)
				tracedJobs++
			}
			g := 0.5 * math.Log(flowcases.PerturbationEnergy(s)/e0) / (s.Time() - tt0)
			growthErr = append(growthErr, math.Abs(g-osr.GrowthRate())/math.Abs(osr.GrowthRate()))
		}
		job.end()
		jobs = append(jobs, interval{t0, time.Now(), clock.spentInRefs() - refs0})
		failedSteps += countUnconverged(stats)
		if len(stats) < channelJobSteps || countUnconverged(stats) > 0 {
			failedJobs++
		}
		if refs[a] == nil {
			refs[a] = sigs
		} else if !slices.Equal(refs[a], sigs) {
			rep.fail("job %d: iteration or flop counts differ from job %d on identical inputs", j, a)
		}
		if last != nil {
			last.Close()
		}
		last = s
	}
	rep.set("peak_heap_mb", heap.stopAndRead(), 1)
	defer last.Close()

	if len(growthErr) == 0 {
		return fmt.Errorf("no job completed its %d steps", channelJobSteps)
	}
	gErr := median(growthErr)
	if gErr > growthGate {
		rep.fail("TS growth-rate error %.4g exceeds the %.2g gate", gErr, growthGate)
	}
	// Exact counts of the steady-state steps, averaged over the amplitudes.
	const steady = channelJobSteps - stepWarmup
	var pIters, hIters, proj, flops float64
	for _, ref := range refs {
		if len(ref) != channelJobSteps {
			return fmt.Errorf("a job stopped early")
		}
		for _, sg := range ref[stepWarmup:] {
			pIters += float64(sg.pIters)
			hIters += float64(sg.hIters[0] + sg.hIters[1] + sg.hIters[2])
			proj += float64(sg.proj)
		}
		flops += float64(ref[channelJobSteps-1].flops - ref[stepWarmup-1].flops)
	}
	n := float64(steady * len(refs))
	setWallTimes(rep, clock, setups, steps, jobs)
	rep.set("virtual_s_per_step", flops/n*comm.ASCIRed(1).FlopSec, int(n))
	rep.set("result_err", gErr, len(growthErr))
	rep.set("failed_step_frac", frac(failedSteps, allSteps), allSteps)
	rep.set("failed_job_frac", frac(failedJobs, len(jobs)), len(jobs))
	if !o.traced {
		return nil
	}

	// Per-layer metrics of the traced run.
	rep.set("solver.pressure_iters_per_step", pIters/n, int(n))
	rep.set("solver.viscous_iters_per_step", hIters/n, int(n))
	rep.set("solver.projection_basis_mean", proj/n, int(n))
	rep.set("sem.flops_per_step", flops/n, int(n))
	// Untraced jobs only: the benchmark's spans allocate.
	rep.set("runtime.allocs_per_step", float64(allocs)/float64(steady*untracedJobs), steady*untracedJobs)
	nTraced := steady * tracedJobs
	phases.report(rep, nTraced)
	rep.set("solver.pressure_cg_ms_per_step", phases[4].Seconds()*1e3/float64(nTraced), nTraced)
	setTraceOverhead(rep, clock.normMS(steps), clock.normMS(tracedSteps))
	laRungs(o, rep, sp, last.M.N, 2)
	solverRungs(o, rep, sp, last)
	zeroUnexercised(rep, "solver.precond_table_hit_frac", "comm.", "gs.", "coarse.", "parrun.",
		"session.", "http.", "runtime.goroutines_leaked", "store.put_ms")
	finishTrace(rep, sp, "channel-serial", float64(tracedJobs))
	return nil
}
