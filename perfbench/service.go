package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/ns"
	"repro/internal/session"
)

const (
	semClients   = 2 // closed-loop clients, each waiting for its job
	semMaxActive = 2 // manager slots
	// setupRepeats cold starts take about 2 s, so that their median does
	// not hinge on a moment of host noise.
	setupRepeats  = 2001
	setupRefEvery = 20 // cold starts between reference runs
	pollInterval  = 2 * time.Millisecond
	divergenceCap = 1e-4 // largest final-step divergence a job may return
)

// server is one in-process semflowd: a manager on a mem:// store behind
// session.HTTPHandler on a loopback listener.
type server struct {
	m      *session.Manager
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// startServer starts a server and returns once /healthz answers.
func startServer() (*server, error) {
	store, err := session.OpenStore("mem://")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		m:      session.NewManager(store, semMaxActive),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 2 * semClients, DialContext: dialNoLinger}},
		served: make(chan error, 1),
	}
	s.hs = &http.Server{Handler: session.HTTPHandler(s.m)}
	go func() { s.served <- s.hs.Serve(ln) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("healthz did not answer: %v", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// dialNoLinger dials a client connection that is reset when it closes, so
// that neither end is left in TIME_WAIT. A run starts hundreds of servers;
// their closed connections would otherwise pile up in TIME_WAIT for a
// minute, and the kernel's port searches slow down with every one, so
// each cold start would grow slower than the one before, in this run and
// in the next.
func dialNoLinger(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, network, addr)
	if tc, ok := c.(*net.TCPConn); ok {
		err = tc.SetLinger(0)
	}
	return c, err
}

// close resets the client's connections, stops the HTTP server, waits for
// its serve loop, then closes the manager (cancelling and waiting for
// every job runner).
func (s *server) close() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.served
	s.m.Close()
	return err
}

// jobResult is what one client observed of one job.
type jobResult struct {
	cfg                    session.Config
	id                     string
	latency, submit, queue float64 // ms; latency is scaled after the run
	t0, t1                 time.Time
	status                 []float64
	history                float64
	failed                 bool
	why                    string
	hist                   []byte // the served history JSONL
	records                []ns.StepRecord
	traced                 bool
}

// do sends one request (body nil for a GET) and returns the body of a
// response with status want, and the request's wall time in ms.
func (s *server) do(sp *spans, tid int, name, id string, parent *span, path string, body []byte, want int) ([]byte, float64, error) {
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		method, rd = http.MethodPost, bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	sn := sp.begin(tid, name, "http", id, parent)
	t0 := time.Now()
	resp, err := s.client.Do(req)
	var out []byte
	if err == nil {
		out, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != want {
			err = fmt.Errorf("%s: HTTP %d: %s", name, resp.StatusCode, bytes.TrimSpace(out))
		}
	}
	ms := time.Since(t0).Seconds() * 1e3
	sn.end()
	return out, ms, err
}

// runJob submits cfg, polls its status until it leaves running, then
// fetches its history.
func (s *server) runJob(sp *spans, tid int, cfg session.Config) (r jobResult) {
	r = jobResult{cfg: cfg, traced: sp != nil}
	job := sp.begin(tid, "semflowd.job", "client", "", nil)
	r.t0 = time.Now()
	defer func() {
		r.t1 = time.Now()
		r.latency = r.t1.Sub(r.t0).Seconds() * 1e3
		job.end()
	}()
	fail := func(err error) jobResult {
		r.failed, r.why = true, err.Error()
		return r
	}
	body, err := json.Marshal(session.SubmitRequest{Config: cfg})
	if err != nil {
		return fail(err)
	}
	out, ms, err := s.do(sp, tid, "http.submit", "", job, "/api/sessions", body, http.StatusCreated)
	r.submit = ms
	if err != nil {
		return fail(err)
	}
	var sub session.SubmitResponse
	if err := json.Unmarshal(out, &sub); err != nil {
		return fail(err)
	}
	r.id = sub.ID
	if job != nil {
		job.job = sub.ID
	}
	submitted := time.Now()
	var st session.Status
	for {
		out, ms, err := s.do(sp, tid, "http.status", r.id, job, "/api/sessions/"+r.id, nil, http.StatusOK)
		r.status = append(r.status, ms)
		if err != nil {
			return fail(err)
		}
		if err := json.Unmarshal(out, &st); err != nil {
			return fail(err)
		}
		if r.queue == 0 && st.Step >= 1 {
			r.queue = time.Since(submitted).Seconds() * 1e3
		}
		if st.State != session.StateRunning {
			break
		}
		time.Sleep(pollInterval)
	}
	if st.State != session.StateDone {
		return fail(fmt.Errorf("job %s ended %s: %s", r.id, st.State, st.Error))
	}
	r.hist, r.history, err = s.do(sp, tid, "http.history", r.id, job, "/api/sessions/"+r.id+"/history", nil, http.StatusOK)
	if err != nil {
		return fail(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(r.hist))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		var rec ns.StepRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fail(fmt.Errorf("history of %s: %w", r.id, err))
		}
		r.records = append(r.records, rec)
	}
	if err := sc.Err(); err != nil {
		return fail(fmt.Errorf("history of %s: %w", r.id, err))
	}
	if len(r.records) != cfg.Steps {
		return fail(fmt.Errorf("history of %s has %d records, want %d", r.id, len(r.records), cfg.Steps))
	}
	return r
}

// runSemflowd drives semflowd with semClients closed-loop clients until
// the measuring time is used up; each client finishes its job in flight.
func runSemflowd(o options, rep *report) error {
	baseG := runtime.NumGoroutine()
	clock := newHostClock()
	var setups []interval
	var srv *server
	setupKern := newRefKernel()
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				return err
			}
		}
		if i%setupRefEvery == 0 {
			clock.probe(setupKern, 1)
		}
		t0 := time.Now()
		s, err := startServer()
		if err != nil {
			return err
		}
		setups = append(setups, interval{t0: t0, t1: time.Now()})
		srv = s
	}

	var sp *spans
	if o.traced {
		sp = newSpans()
	}
	// The manager keeps every finished job (see README.md), so the heap
	// grows with the number of jobs served. The peak is taken over the
	// first heapBlocks script blocks of every client, a fixed amount of
	// work, so that a faster server does not read as a larger heap. Four
	// blocks rather than two cut the peak's run-to-run spread from 0.10-0.14
	// to 0.05-0.10: the retained jobs outweigh the garbage a GC cycle happens
	// to leave.
	const heapBlocks = 4
	heapJobs := heapBlocks * len(jobKinds) * semClients
	var finished atomic.Int64
	var heapMB float64
	heap := startHeapPeak()
	a0 := heapAllocs()
	start := time.Now()
	deadline := start.Add(o.duration)
	results := make([][]jobResult, semClients)
	var wg sync.WaitGroup
	for c := 0; c < semClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			script := jobScript(o.seed, c, 4096)
			// Each client samples the host speed between its jobs.
			kern := newRefKernel()
			// At least heapBlocks blocks of the script, so that a traced
			// run has untraced and traced jobs of every kind and the heap
			// window closes.
			for i := 0; i < len(script) && (i < heapBlocks*len(jobKinds) || time.Now().Before(deadline)); i++ {
				// Whole blocks of the script alternate between untraced
				// and traced, so both halves see the same job mix.
				jsp := sp
				if o.traced && (i/len(jobKinds))%2 == 0 {
					jsp = nil
				}
				clock.probe(kern, 2)
				results[c] = append(results[c], srv.runJob(jsp, c+1, script[i]))
				if finished.Add(1) == int64(heapJobs) {
					heapMB = heap.stopAndRead()
				}
			}
		}(c)
	}
	wg.Wait()
	end := time.Now()
	elapsed := end.Sub(start).Seconds()
	allocs := heapAllocs() - a0
	rep.set("peak_heap_mb", heapMB, heapJobs)

	var (
		lat, tracedLat, untracedLat, submit, queue, status, history, stepMS []float64
		failedJobs, unconverged, steps, autoJobs, autoHits                  int
		flops                                                               int64
		finalDiv                                                            float64
		phases                                                              phaseTimes
		all                                                                 []jobResult
	)
	for _, rs := range results {
		all = append(all, rs...)
	}
	var rawLat []float64
	for i := range all {
		rawLat = append(rawLat, all[i].latency)
		all[i].latency = clock.ms(all[i].t0, all[i].t1, 0)
	}
	for _, r := range all {
		rep.attempted++
		lat = append(lat, r.latency)
		if r.traced {
			tracedLat = append(tracedLat, r.latency)
		} else {
			untracedLat = append(untracedLat, r.latency)
		}
		submit = append(submit, r.submit)
		status = append(status, r.status...)
		if r.failed {
			rep.failed++
			failedJobs++
			rep.fail("%s job %s: %s", r.cfg.Case, r.id, r.why)
			continue
		}
		queue = append(queue, r.queue)
		history = append(history, r.history)
		steps += len(r.records)
		bad := 0
		for _, rec := range r.records {
			if !rec.PressureConverged || !rec.ViscousConverged {
				bad++
			}
		}
		unconverged += bad
		if bad > 0 {
			failedJobs++
		}
		finalDiv = max(finalDiv, r.records[len(r.records)-1].MaxDivergence)
		// The manager keeps finished jobs; their sessions' solvers and
		// registries stay readable after Close.
		j, ok := srv.m.Get(r.id)
		if !ok {
			rep.fail("job %s vanished from the manager", r.id)
			continue
		}
		sv := j.Session().Solver()
		flops += sv.Disc().Flops()
		reg := j.Session().Registry()
		ph := readPhases(reg)
		phases.add(ph, phaseTimes{})
		// The session registry times phases, not whole steps: each of the
		// job's steps is sampled at the job's mean step time.
		stepWall := ph[0] + ph[1] + ph[2] + ph[3] + reg.Timer("ns/scalar").Total()
		scaled := stepWall.Seconds() * 1e3 * clock.scale(r.t0, r.t1)
		for range r.records {
			stepMS = append(stepMS, scaled/float64(len(r.records)))
		}
		if r.cfg.Precond == ns.PrecondAuto {
			autoJobs++
			if sv.PrecondSelection().Source == "table" {
				autoHits++
			}
		}
	}
	if len(all) == 0 {
		return fmt.Errorf("no job ran")
	}
	checkAgainstDirect(rep, all)
	noteMix(rep, all)
	if finalDiv > divergenceCap {
		rep.fail("a job returned a field with divergence %.3g > %.0g", finalDiv, divergenceCap)
	}
	if err := srv.close(); err != nil {
		rep.fail("server shutdown: %v", err)
	}
	leaked := goroutinesAbove(baseG)

	su := clock.normMS(setups)
	rep.set("setup_s", median(su)/1e3, len(su))
	rep.set("step_ms_mean", mean(stepMS), len(stepMS))
	rep.set("step_ms_p90", quantile(stepMS, 0.9), len(stepMS))
	rep.set("virtual_s_per_step", float64(flops)/float64(steps)*comm.ASCIRed(1).FlopSec, steps)
	rep.set("result_err", finalDiv, len(all))
	rep.set("job_latency_ms_p50", median(lat), len(lat))
	rep.set("job_latency_ms_p90", quantile(lat, 0.9), len(lat))
	// Closed loop without think time: throughput is clients over mean
	// latency (Little's law), here with each job's latency scaled.
	rep.set("jobs_per_s", float64(semClients*len(lat))/(sum(lat)/1e3), len(all))
	loadScale := clock.scale(start, end)
	rep.note("scaled: step p50 %.4g ms", median(stepMS))
	rep.note("unscaled wall (host scale %.3f): setup %.4g s, job p50 %.4g ms, p90 %.4g ms, %.4g jobs/s",
		loadScale, median(wallMS(setups))/1e3, median(rawLat), quantile(rawLat, 0.9), float64(len(all))/elapsed)
	rep.set("failed_step_frac", frac(unconverged, steps), steps)
	rep.set("failed_job_frac", frac(failedJobs, len(all)), len(all))
	if !o.traced {
		return nil
	}

	phases.report(rep, len(stepMS))
	rep.set("solver.pressure_cg_ms_per_step", phases[4].Seconds()*1e3/float64(steps), steps)
	rep.set("solver.precond_table_hit_frac", frac(autoHits, autoJobs), autoJobs)
	rep.set("session.submit_ms_p50", median(submit), len(submit))
	rep.set("session.queue_wait_ms_p50", median(queue), len(queue))
	rep.set("http.status_ms_p50", median(status), len(status))
	rep.set("http.history_ms_p50", median(history), len(history))
	rep.set("runtime.goroutines_leaked", float64(leaked), 1)
	rep.set("runtime.allocs_per_step", float64(allocs)/float64(steps), steps)
	setTraceOverhead(rep, untracedLat, tracedLat)

	// Rungs: the la kernels at the hairpin's 3D N=3 shapes; the element
	// operators, Schwarz apply, checkpoint and store write on the
	// convection case, the job that checkpoints through the store.
	laRungs(o, rep, sp, 3, 3)
	conv, err := session.Create(convectionJob)
	if err != nil {
		return err
	}
	defer conv.Close()
	if _, err := conv.StepN(2); err != nil {
		return err
	}
	solverRungs(o, rep, sp, conv.Solver())
	var f0 = conv.Solver().Disc().Flops()
	if _, err := conv.StepN(1); err != nil {
		return err
	}
	rep.set("sem.flops_per_step", float64(conv.Solver().Disc().Flops()-f0), 1)
	// Everything semflowd does per step, including the history records.
	rep.set("solver.pressure_iters_per_step", meanHistory(all, func(r ns.StepRecord) float64 { return float64(r.PressureIters) }), steps)
	rep.set("solver.viscous_iters_per_step", meanHistory(all, func(r ns.StepRecord) float64 {
		return float64(r.HelmholtzIters[0] + r.HelmholtzIters[1] + r.HelmholtzIters[2])
	}), steps)
	rep.set("solver.projection_basis_mean", meanHistory(all, func(r ns.StepRecord) float64 { return float64(r.ProjectionBasis) }), steps)
	zeroUnexercised(rep, "comm.", "gs.", "coarse.", "parrun.")
	finishTrace(rep, sp, "semflowd-jobs", float64(len(tracedLat)))
	return nil
}

// meanHistory averages f over every history record of every job.
func meanHistory(all []jobResult, f func(ns.StepRecord) float64) float64 {
	var s float64
	var n int
	for _, r := range all {
		for _, rec := range r.records {
			s += f(rec)
			n++
		}
	}
	return s / float64(max(n, 1))
}

// noteMix prints, for each case of the job mix, its number of jobs, its
// share of all steps and its median job latency.
func noteMix(rep *report, all []jobResult) {
	byCase := map[string][]float64{}
	steps := map[string]int{}
	total := 0
	for _, r := range all {
		byCase[r.cfg.Case] = append(byCase[r.cfg.Case], r.latency)
		steps[r.cfg.Case] += len(r.records)
		total += len(r.records)
	}
	for _, k := range []string{"channel", "shearlayer", "convection", "hairpin"} {
		if lat := byCase[k]; len(lat) > 0 {
			rep.note("mix: %-10s %4d jobs, %4.1f%% of steps, latency p50 %.1f ms", k, len(lat), 100*frac(steps[k], total), median(lat))
		}
	}
}

// checkAgainstDirect reruns, untimed and in-process through session.Create
// and StepN, the first served job of every distinct numerical
// configuration, and requires its history to be byte-identical to the one
// semflowd served.
func checkAgainstDirect(rep *report, all []jobResult) {
	seen := map[string]bool{}
	for _, r := range all {
		if r.failed {
			continue
		}
		key := fmt.Sprintf("%s/%d/%d/%g", r.cfg.Case, r.cfg.N, r.cfg.Nel, r.cfg.Alpha)
		if seen[key] {
			continue
		}
		seen[key] = true
		s, err := session.Create(r.cfg)
		if err != nil {
			rep.fail("direct %s: %v", key, err)
			continue
		}
		if _, err := s.StepN(r.cfg.Steps); err != nil {
			rep.fail("direct %s: %v", key, err)
		}
		var buf bytes.Buffer
		if err := s.History().WriteJSONL(&buf); err != nil {
			rep.fail("direct %s: %v", key, err)
		}
		s.Close()
		if !bytes.Equal(buf.Bytes(), r.hist) {
			rep.fail("job %s: served history differs from a direct run of the same configuration", r.id)
		}
	}
}

// goroutinesAbove waits up to two seconds for the goroutine count to fall
// back to base and returns how many remain above it.
func goroutinesAbove(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine() - base
		if n <= 0 || time.Now().After(deadline) {
			return max(n, 0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
