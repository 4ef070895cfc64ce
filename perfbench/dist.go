package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/flowcases"
	"repro/internal/instrument"
	"repro/internal/ns"
	"repro/internal/orrsomm"
	"repro/internal/parrun"
)

// The distributed channel: the Table 1 channel at N=5 on K=16×4, 16
// simulated ASCI-Red ranks with 4 elements each. Job j steps amplitude j
// mod distAmplitudes.
const (
	distRanks      = 16
	distJobSteps   = 40
	distAmplitudes = 8
	distGate       = 1e-8 // max |u_dist - u_serial| allowed

	machineTraceSteps = 3
)

func distChannelConfig(eps float64) flowcases.ChannelConfig {
	return flowcases.ChannelConfig{
		Re: 7500, Alpha: 1, N: 5, KX: 16, KY: 4, Dt: 0.003125, Order: 2, Eps: eps,
	}
}

// distInput is one amplitude's problem with its untimed serial reference.
type distInput struct {
	cfg    ns.Config
	init   flowcases.InitFunc
	serial *ns.Solver // stepped distJobSteps steps
	e0     float64    // perturbation energy of the initial field
	growth float64    // Orr–Sommerfeld growth rate
	ref    *parrun.NSResult
}

// distSig is the deterministic part of one distributed job: every job of a
// run on the same amplitude must repeat it exactly.
type distSig struct {
	virtual      float64
	msgs, bytes  int64
	phase        [4]float64
	stepVirtual  string
	nonconverged int
}

func sigOf(r *parrun.NSResult) distSig {
	return distSig{r.VirtualSeconds, r.TotalMsgs, r.TotalBytes, r.PhaseVirtual,
		fmt.Sprint(r.StepVirtual), r.NonconvergedSteps}
}

// newDistInputs builds the problem for every amplitude and steps its
// serial reference.
func newDistInputs(seed int64) ([]*distInput, error) {
	var ins []*distInput
	for _, eps := range channelAmplitudes(seed, distAmplitudes) {
		cfg, init, osr, err := flowcases.ChannelSpec(distChannelConfig(eps))
		if err != nil {
			return nil, err
		}
		s, err := ns.New(cfg)
		if err != nil {
			return nil, err
		}
		in := &distInput{cfg: cfg, init: init, serial: s, growth: osr.GrowthRate()}
		ins = append(ins, in)
		s.SetVelocity(init)
		in.e0 = flowcases.PerturbationEnergy(s)
		for i := 0; i < distJobSteps; i++ {
			if _, err := s.Step(); err != nil {
				closeDistInputs(ins)
				return nil, fmt.Errorf("serial reference: %w", err)
			}
		}
	}
	return ins, nil
}

func closeDistInputs(ins []*distInput) {
	for _, in := range ins {
		in.serial.Close()
	}
}

// runChannelDist runs parrun.NavierStokes jobs of distJobSteps steps back
// to back. Each job builds its ranks, partition and coarse factorization
// from scratch, exactly as a caller of parrun does.
func runChannelDist(o options, rep *report) error {
	// One processor: the 16 rank goroutines take turns on it, so a step's
	// wall time is the work of all ranks plus their hand-offs, with no
	// cross-processor wake-ups, and the reference kernel measures the same
	// processor's speed.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ins, err := newDistInputs(o.seed)
	if err != nil {
		return err
	}
	defer closeDistInputs(ins)

	var sp *spans
	if o.traced {
		sp = newSpans()
	}
	heap := startHeapPeak()
	clock, kern := newHostClock(), newRefKernel()
	var (
		setups, steps, tracedSteps, jobs  []interval
		errs                              []float64
		failedSteps, allSteps, failedJobs int
		allocs                            uint64
		allreduceCalls                    int64
		maxUDiff                          float64
		tracedJobs, untracedJobs          int
	)
	start := time.Now()
	for j := 0; j < minJobs(o.traced, len(ins)) || time.Since(start) < o.duration; j++ {
		// Each job starts on a collected heap, so that its peak does
		// not depend on when the previous job's garbage was marked.
		runtime.GC()
		clock.probe(kern, 2)
		var jsp *spans
		if tracedJob(o.traced, j, len(ins)) {
			jsp = sp
		}
		in := ins[j%len(ins)]
		cfg := parrun.NSConfig{P: distRanks, Steps: distJobSteps, Init: in.init}
		var reg *instrument.Registry
		if jsp != nil {
			reg = instrument.New()
			cfg.Registry = reg
		}
		id := fmt.Sprintf("job%d", j)
		job := jsp.begin(0, "channel.job", "client", id, nil)
		call := jsp.begin(0, "parrun.NavierStokes", "parrun", id, job)

		// OnStep runs on the rank-0 goroutine; the mutex orders its
		// writes before the reads after NavierStokes returns. The first
		// interval (call to first OnStep) is set-up plus step 1: parrun
		// exposes no earlier hook. Every refEvery steps OnStep runs the
		// reference kernel; with one processor no rank runs meanwhile,
		// and step k+1 is timed from the end of that run (resumed[k]) to
		// the next OnStep (marks[k+1]).
		var mu sync.Mutex
		var marks, resumed []time.Time
		var a0 uint64
		refs0 := clock.spentInRefs()
		t0 := time.Now()
		stepSpan := jsp.begin(1, "parrun.setup+step1", "build", id, call)
		cfg.OnStep = func(st ns.StepStats, _ float64) {
			now := time.Now()
			stepSpan.end()
			if st.Step%refEvery == 0 && st.Step < distJobSteps {
				clock.probe(kern, 1)
			}
			mu.Lock()
			marks = append(marks, now)
			resumed = append(resumed, time.Now())
			if len(marks) == stepWarmup && jsp == nil {
				a0 = heapAllocs()
			}
			mu.Unlock()
			if st.Step < distJobSteps {
				stepSpan = jsp.begin(1, "parrun.step", "step", id, call)
			}
		}
		res, err := parrun.NavierStokes(in.cfg, cfg)
		call.end()
		job.end()
		lat := interval{t0, time.Now(), clock.spentInRefs() - refs0}
		mu.Lock()
		ms, rs := marks, resumed
		if len(ms) == distJobSteps && jsp == nil {
			allocs += heapAllocs() - a0
			untracedJobs++
		}
		mu.Unlock()
		jobs = append(jobs, lat)
		rep.attempted += distJobSteps
		allSteps += distJobSteps
		if err != nil {
			rep.failed += distJobSteps - len(ms)
			failedSteps += distJobSteps
			failedJobs++
			rep.fail("job %d: %v", j, err)
			continue
		}
		if len(ms) > 0 {
			setups = append(setups, interval{t0: t0, t1: ms[0]})
		}
		for k := stepWarmup; k < len(ms); k++ {
			d := interval{t0: rs[k-1], t1: ms[k]}
			if jsp != nil {
				tracedSteps = append(tracedSteps, d)
			} else {
				steps = append(steps, d)
			}
		}
		failedSteps += countUnconverged(res.StepStats)
		if res.NonconvergedSteps > 0 {
			failedJobs++
		}
		if in.ref == nil {
			in.ref = res
		} else if sigOf(res) != sigOf(in.ref) {
			rep.fail("job %d: virtual time or traffic differs from an earlier job on identical inputs", j)
		}
		diff := maxDiff(res.U, in.serial, in.cfg.Mesh.Dim)
		if diff > distGate {
			rep.fail("job %d: max |u_dist - u_serial| = %.3g exceeds %.0g", j, diff, distGate)
		}
		if diff > maxUDiff {
			maxUDiff = diff
		}
		g := 0.5 * math.Log(perturbationEnergy(in.serial, res.U)/in.e0) / res.Time
		errs = append(errs, math.Abs(g-in.growth)/math.Abs(in.growth))
		if jsp != nil {
			allreduceCalls += reg.Counter("comm/allreduce.calls").Value()
			tracedJobs++
		}
	}
	rep.set("peak_heap_mb", heap.stopAndRead(), 1)
	rep.note("max |u_dist - u_serial| = %.3g (gate %.0g)", maxUDiff, distGate)

	// Exact per-step counts, averaged over the amplitudes: steady-state
	// virtual time and iterations (steps after the warm-up), whole-run
	// traffic (set-up exchanges and step 1 included).
	const steady = distJobSteps - stepWarmup
	var virt, pIters, hIters, proj, msgs, bytes, cut float64
	var phase [4]float64
	for _, in := range ins {
		r := in.ref
		if r == nil {
			return fmt.Errorf("an amplitude never completed a job")
		}
		virt += sum(r.StepVirtual[stepWarmup:])
		for _, st := range r.StepStats[stepWarmup:] {
			pIters += float64(st.PressureIters)
			hIters += float64(st.HelmholtzIters[0] + st.HelmholtzIters[1] + st.HelmholtzIters[2])
			proj += float64(st.ProjectionBasis)
		}
		msgs += float64(r.TotalMsgs)
		bytes += float64(r.TotalBytes)
		for i, v := range r.PhaseVirtual {
			phase[i] += v
		}
		cut = float64(r.CutEdges)
	}
	nSteady := float64(steady * len(ins))
	nAll := float64(distJobSteps * len(ins))

	setWallTimes(rep, clock, setups, steps, jobs)
	rep.set("virtual_s_per_step", virt/nSteady, int(nSteady))
	if median(errs) > growthGate {
		rep.fail("TS growth-rate error %.4g of the distributed run exceeds the %.2g gate", median(errs), growthGate)
	}
	rep.set("result_err", median(errs), len(errs))
	rep.set("failed_step_frac", frac(failedSteps, allSteps), allSteps)
	rep.set("failed_job_frac", frac(failedJobs, len(jobs)), len(jobs))
	if !o.traced {
		return nil
	}

	rep.set("solver.pressure_iters_per_step", pIters/nSteady, int(nSteady))
	rep.set("solver.viscous_iters_per_step", hIters/nSteady, int(nSteady))
	rep.set("solver.projection_basis_mean", proj/nSteady, int(nSteady))
	var serialFlops float64
	for _, in := range ins {
		serialFlops += float64(in.serial.Disc().Flops())
	}
	// The ranks share the serial problem's work; its flop meter counts
	// from construction, so this is whole-run flops per step.
	rep.set("sem.flops_per_step", serialFlops/nAll, int(nAll))
	// Untraced jobs only: the benchmark's spans allocate.
	rep.set("runtime.allocs_per_step", float64(allocs)/float64(steady*untracedJobs), steady*untracedJobs)
	rep.set("comm.msgs_per_step", msgs/nAll, int(nAll))
	rep.set("comm.bytes_per_step", bytes/nAll, int(nAll))
	rep.set("comm.allreduce_calls_per_step", float64(allreduceCalls)/float64(distJobSteps*tracedJobs), distJobSteps*tracedJobs)
	vtot := phase[0] + phase[1] + phase[2] + phase[3]
	for i, name := range phaseNames {
		rep.set("parrun.phase_virtual_s."+name, phase[i]/nAll, int(nAll))
		// The distributed stepper has no wall-clock phase timers: its
		// shares are of modeled (virtual) phase time.
		rep.set("ns."+name+"_share", phase[i]/vtot, int(nAll))
	}
	rep.set("parrun.cut_edges", cut, 1)
	setTraceOverhead(rep, clock.normMS(steps), clock.normMS(tracedSteps))

	// One more, untimed and shorter job records the simulated machine's
	// own virtual-clock tracks (rank 0 only, to keep the file small) into
	// the same trace, so tracepath can walk its critical path.
	sp.tr.SampleVRanks([]int{0})
	machine := sp.begin(0, "parrun.NavierStokes (machine trace)", "machine-trace", "machine", nil)
	_, err = parrun.NavierStokes(ins[0].cfg, parrun.NSConfig{
		P: distRanks, Steps: machineTraceSteps, Init: ins[0].init, Tracer: sp.tr})
	machine.end()
	if err != nil {
		return err
	}
	ser := ins[0].serial
	laRungs(o, rep, sp, ser.M.N, 2)
	solverRungs(o, rep, sp, ser)
	if err := distRungs(o, rep, sp, ser, distRanks); err != nil {
		return err
	}
	zeroUnexercised(rep, "solver.pressure_cg_ms_per_step", "solver.precond_table_hit_frac",
		"session.", "http.", "runtime.goroutines_leaked", "store.put_ms")
	finishTrace(rep, sp, "channel-dist-p16", float64(tracedJobs))
	return nil
}

// perturbationEnergy is flowcases.PerturbationEnergy of the velocity u on
// s's mesh: the energy of the TS wave the channel carries.
func perturbationEnergy(s *ns.Solver, u [3][]float64) float64 {
	du := make([]float64, len(u[0]))
	for i, v := range u[0] {
		du[i] = v - orrsomm.BaseFlow(s.M.Y[i])
	}
	eu, ev := s.Disc().L2Norm(du), s.Disc().L2Norm(u[1])
	return eu*eu + ev*ev
}

// maxDiff is max |u - s.Velocity| over the dim components.
func maxDiff(u [3][]float64, s *ns.Solver, dim int) float64 {
	var d float64
	for c := 0; c < dim; c++ {
		for i, v := range s.Velocity(c) {
			d = math.Max(d, math.Abs(v-u[c][i]))
		}
	}
	return d
}
