package main

// ladder.go holds the rungs: each times one layer's public function on the
// workload's own data (its solver, mesh and shapes) with fixed seeded
// inputs, storing every result into a package-level sink so the compiler
// cannot drop the call. Rungs run only in traced runs.

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/coarse"
	"repro/internal/comm"
	"repro/internal/gs"
	"repro/internal/la"
	"repro/internal/mesh"
	"repro/internal/ns"
	"repro/internal/partition"
	"repro/internal/session"
)

// sink receives one value from every timed call.
var sink float64

// seeded returns n values uniform in [0.5, 1.5) from seed.
func seeded(seed int64, n int) []float64 {
	r := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = 0.5 + r.Float64()
	}
	return v
}

// perCall times fn in batches sized to take about 5 ms each and returns
// the median seconds per call over nine batches.
func perCall(sp *spans, name string, fn func()) float64 {
	s := sp.begin(0, "rung/"+name, "rung", "", nil)
	defer s.end()
	fn() // first call pays lazy set-up
	reps := 1
	for {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if time.Since(t0) >= 5*time.Millisecond || reps >= 1<<20 {
			break
		}
		reps *= 2
	}
	per := make([]float64, 9)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		per[b] = time.Since(t0).Seconds() / float64(reps)
	}
	return median(per)
}

// largestShape is the shape with the most flops.
func largestShape(shapes [][3]int) [3]int {
	best := shapes[0]
	for _, s := range shapes[1:] {
		if s[0]*s[1]*s[2] > best[0]*best[1]*best[2] {
			best = s
		}
	}
	return best
}

// laRungs times la.Mul and la.MulABt at the workload's largest matmul
// shapes of its order and dimension (the shapes the element operators
// issue) and reports time, achieved GFLOP/s and computed bytes per call.
func laRungs(o options, rep *report, sp *spans, n, dim int) {
	mulShapes, abtShapes := la.ShapesForOrder(n, dim)
	rung := func(prefix string, s [3]int, kernel func(c, a, b []float64, n1, n2, n3 int)) {
		n1, n2, n3 := s[0], s[1], s[2]
		a := seeded(o.seed, n1*n2)
		b := seeded(o.seed+1, n2*n3)
		c := make([]float64, n1*n3)
		sec := perCall(sp, prefix, func() {
			kernel(c, a, b, n1, n2, n3)
			sink += c[0]
		})
		flops := 2 * float64(n1*n2*n3)
		rep.set(prefix+"_ns", sec*1e9, 9)
		rep.set(prefix+"_gflops", flops/sec/1e9, 9)
		rep.set(prefix+"_bytes", float64(8*(n1*n2+n2*n3+n1*n3)), 1)
	}
	rung("la.mul", largestShape(mulShapes), la.Mul)
	rung("la.mul_abt", largestShape(abtShapes), la.MulABt)
}

// solverRungs times the element operators, the Schwarz apply and a
// checkpoint snapshot on the workload's own solver.
func solverRungs(o options, rep *report, sp *spans, s *ns.Solver) {
	m := s.M
	nv := len(s.Velocity(0))
	np := m.K * s.Npp()
	var u [3][]float64
	grad := make([][]float64, m.Dim)
	for c := 0; c < m.Dim; c++ {
		u[c] = seeded(o.seed+int64(c), nv)
		grad[c] = make([]float64, nv)
	}
	p := seeded(o.seed+7, np)
	div := make([]float64, np)
	rep.set("ns.divergence_us", 1e6*perCall(sp, "ns.divergence", func() {
		s.Divergence(div, u)
		sink += div[0]
	}), 9)
	rep.set("ns.gradient_t_us", 1e6*perCall(sp, "ns.gradient_t", func() {
		s.GradientT(grad, p)
		sink += grad[0][0]
	}), 9)

	d := s.Disc()
	h1, h2 := 1/s.Cfg.Re, 1.5/s.Cfg.Dt
	hout := make([]float64, nv)
	rep.set("sem.helmholtz_us", 1e6*perCall(sp, "sem.helmholtz", func() {
		d.Helmholtz(hout, u[0], h1, h2)
		sink += hout[0]
	}), 9)
	// Assemble sums shared nodes in place, so the timed vector grows by at
	// most the node multiplicity per call; its magnitude does not change
	// the cost.
	av := seeded(o.seed+11, nv)
	rep.set("sem.assemble_us", 1e6*perCall(sp, "sem.assemble", func() {
		d.Assemble(av)
		sink += av[0]
	}), 9)

	// The Schwarz(FDM)+coarse preconditioner acts on the velocity-grid
	// residual of the pressure sandwich (ns applies the P_{N-2} -> P_N
	// interpolation around it).
	apply := 0.0
	if pre := s.PressurePre(); pre != nil {
		rv := seeded(o.seed+13, nv)
		z := make([]float64, nv)
		apply = 1e6 * perCall(sp, "schwarz.apply", func() {
			pre.Apply(z, rv)
			sink += z[0]
		})
	}
	rep.set("schwarz.apply_us", apply, 9)

	var ckBytes []byte
	rep.set("ns.checkpoint_encode_ms", 1e3*perCall(sp, "ns.checkpoint_encode", func() {
		var buf bytes.Buffer
		if err := s.Checkpoint().Encode(&buf); err != nil {
			rep.fail("checkpoint encode: %v", err)
		}
		ckBytes = buf.Bytes()
	}), 9)
	rep.set("store.checkpoint_bytes", float64(len(ckBytes)), 1)
	storeRung(rep, sp, ckBytes)
}

// storeRung times one MemStore.Put of a checkpoint-sized artifact, the
// store write semflowd performs per checkpoint.
func storeRung(rep *report, sp *spans, data []byte) {
	st := session.NewMemStore()
	i := 0
	rep.set("store.put_ms", 1e3*perCall(sp, "store.put", func() {
		i++
		if err := st.Put("bench", fmt.Sprintf("ck%d", i%8), data); err != nil {
			rep.fail("store put: %v", err)
		}
	}), 9)
}

// onMachine runs a fresh P-rank ASCI-Red network three times. On every
// rank, setup builds the rank's state and returns the operation to time;
// the ranks then meet at an allreduce, call the operation reps times and
// meet again. It returns the median of rank 0's wall seconds per call, so
// set-up is not timed. Each operation is itself a collective or an
// exchange, which keeps the ranks in step.
func onMachine(sp *spans, name string, p, reps int, setup func(r *comm.Rank) func()) float64 {
	s := sp.begin(0, "rung/"+name, "rung", "", nil)
	defer s.end()
	per := make([]float64, 3)
	for i := range per {
		comm.NewNetwork(comm.ASCIRed(p)).Run(func(r *comm.Rank) {
			op := setup(r)
			r.AllreduceScalar(0, comm.OpSum)
			t0 := time.Now()
			for k := 0; k < reps; k++ {
				op()
			}
			r.AllreduceScalar(0, comm.OpSum)
			if r.ID == 0 {
				per[i] = time.Since(t0).Seconds() / float64(reps)
			}
		})
	}
	return median(per)
}

// distRungs times the simulated-machine layers on the workload's mesh at P
// ranks: an allreduce, the RSB-partitioned parallel gather–scatter, and
// the XXT coarse factorization and distributed solve.
func distRungs(o options, rep *report, sp *spans, s *ns.Solver, p int) error {
	m := s.M
	// Rank 0's results go to sink after the network has stopped.
	var v0, u0, x0 float64
	rep.set("comm.allreduce_us", 1e6*onMachine(sp, "comm.allreduce", p, 2000, func(r *comm.Rank) func() {
		v := float64(r.ID)
		return func() {
			v = r.AllreduceScalar(v, comm.OpMax)
			if r.ID == 0 {
				v0 = v
			}
		}
	}), 3)

	elems := rankElements(m, p)
	rep.set("gs.par_apply_us", 1e6*onMachine(sp, "gs.par_apply", p, 500, func(r *comm.Rank) func() {
		mine := elems[r.ID]
		gids := make([]int64, len(mine)*m.Np)
		for li, e := range mine {
			copy(gids[li*m.Np:(li+1)*m.Np], m.GID[e*m.Np:(e+1)*m.Np])
		}
		h := gs.ParInit(r, gids)
		u := seeded(o.seed+int64(r.ID), len(gids))
		return func() {
			h.Apply(u, gs.Sum)
			if r.ID == 0 {
				u0 = u[0]
			}
		}
	}), 3)

	pre := s.PressurePre()
	if pre == nil {
		return fmt.Errorf("solver has no Schwarz preconditioner for the coarse rungs")
	}
	var xxt *coarse.XXT
	fac := make([]float64, 3)
	for i := range fac {
		sp0 := sp.begin(0, "rung/coarse.xxt_factor", "rung", "", nil)
		t0 := time.Now()
		x, err := coarse.NewXXT(pre.CoarseOperator(), 0, 0, p)
		fac[i] = time.Since(t0).Seconds()
		sp0.end()
		if err != nil {
			return fmt.Errorf("xxt factor: %w", err)
		}
		xxt = x
	}
	rep.set("coarse.xxt_factor_s", median(fac), len(fac))
	rep.set("coarse.xxt_solve_us", 1e6*onMachine(sp, "coarse.xxt_solve", p, 500, func(r *comm.Rank) func() {
		w := xxt.NewSolveWork(r.ID)
		b := seeded(o.seed+int64(r.ID), xxt.BlockHi[r.ID]-xxt.BlockLo[r.ID])
		return func() {
			x := xxt.SolveOnW(r, b, w)
			if r.ID == 0 && len(x) > 0 {
				x0 = x[0]
			}
		}
	}), 3)
	sink += v0 + u0 + x0
	return nil
}

// rankElements is the RSB partition of m over p ranks, as element lists.
func rankElements(m *mesh.Mesh, p int) [][]int {
	elems := make([][]int, p)
	for e, q := range partition.RSB(m.Adj, p) {
		elems[q] = append(elems[q], e)
	}
	return elems
}
