package main

import (
	"math"
	"math/rand"

	"repro/internal/session"
)

// The program sees only what these generators produce from --seed.

// channelAmplitudes returns the k Tollmien–Schlichting perturbation
// amplitudes a channel run cycles through, job after job: one from each
// of k equal log-width strata of [5e-6, 2e-5] (Table 1 uses 1e-5), at a
// seeded position inside its stratum. The growth rate does not depend on
// the amplitude in this linear regime, but the pressure CG iteration
// counts of single steps do (the CG tolerance is absolute), so a run that
// stepped only one amplitude would have a median step time that hinges on
// which amplitude the seed picked.
func channelAmplitudes(seed int64, k int) []float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, k)
	for i := range out {
		out[i] = 5e-6 * math.Pow(4, (float64(i)+r.Float64())/float64(k))
	}
	return out
}

// jobKinds is the semflowd job mix, one entry per job of a script block.
// Each job's case, mesh, order and step count is fixed and comes from a job
// the repository itself runs (perfbench/README.md gives the sources); the
// seed varies the submission order, the per-job scheduler quantum
// (batch_steps) and the filter strength. The semflowd quickstart channel
// job appears twice, so that the job-latency p50 falls inside the
// shear-layer jobs' latencies and the p90 inside the convection jobs'
// rather than on the boundary between two kinds.
var jobKinds = []session.Config{
	{Case: "channel", N: 5, Steps: 4, Workers: 2},
	{Case: "channel", N: 5, Steps: 4, Workers: 2},
	{Case: "shearlayer", Nel: 4, N: 6, Steps: 10},
	convectionJob,
	{Case: "hairpin", N: 3, Steps: 10, Precond: "auto"},
}

// convectionJob is the kind that checkpoints through the store; the
// traced run's solver rungs run on it.
var convectionJob = session.Config{Case: "convection", Nel: 4, N: 5, Steps: 40, CheckpointEvery: 10}

// jobScript returns client c's first n jobs: consecutive blocks of
// len(jobKinds) jobs, each block a seeded permutation of jobKinds, so every
// client's mix stays the same over any window of a few blocks.
func jobScript(seed int64, c, n int) []session.Config {
	r := rand.New(rand.NewSource(seed*1000003 + int64(c)))
	out := make([]session.Config, 0, n)
	for len(out) < n {
		for _, k := range r.Perm(len(jobKinds)) {
			cfg := jobKinds[k]
			cfg.BatchSteps = 1 + r.Intn(3)
			if cfg.Case == "channel" || cfg.Case == "shearlayer" {
				cfg.Alpha = []float64{0, 0.02, 0.05}[r.Intn(3)]
			}
			out = append(out, cfg)
			if len(out) == n {
				break
			}
		}
	}
	return out
}
