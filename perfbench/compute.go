package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// largeDomain is compute-large's grid: its five state fields alone take
// ~170 MB, and the original arm's full-grid intermediates exceed 4x a
// 105 MiB L3.
var largeDomain = grid.Sz(512, 128, 64)

// setupReps is how many times a run repeats each set-up; setup_s reports
// the median.
const setupReps = 3

// arm is one compute-large execution strategy.
type arm struct {
	name     string
	strategy exec.Strategy
}

// The core-islands strategy is not an arm: its per-worker environments
// hold full-domain stage arrays, about 9.4 GB of heap on this grid (2.3 GB
// measured at 128x128x64), more than the benchmark host has. serve-small
// runs it on small grids.
var arms = []arm{
	{"original", exec.Original},
	{"plus31d", exec.Plus31D},
	{"islands", exec.IslandsOfCores},
}

// advection is a seeded MPDATA problem: a Gaussian blob in a uniform flow.
type advection struct {
	ci, cj, ck, sigma, amp, bg float64
	c1, c2, c3                 float64
}

// newAdvection draws the blob's centre, width and amplitude and the
// velocity from the seed. The Courant numbers sum to at most 0.9, inside
// MPDATA's stability limit of 1.
func newAdvection(seed int64, d grid.Size) advection {
	r := rand.New(rand.NewSource(seed))
	u := func(lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }
	return advection{
		ci: u(0.3, 0.7) * float64(d.NI), cj: u(0.3, 0.7) * float64(d.NJ), ck: u(0.3, 0.7) * float64(d.NK),
		sigma: u(4, 10), amp: u(0.5, 2), bg: 0.1,
		c1: u(0.05, 0.3), c2: u(0.05, 0.3), c3: u(0.05, 0.3),
	}
}

func (p advection) state(d grid.Size) *mpdata.State {
	st := mpdata.NewState(d)
	st.SetGaussian(p.ci, p.cj, p.ck, p.sigma, p.amp, p.bg)
	st.SetUniformVelocity(p.c1, p.c2, p.c3)
	return st
}

// armRun is one arm's measurements.
type armRun struct {
	setup, compile []float64 // per set-up repetition, seconds
	steps          []float64 // untraced timed steps, seconds
	traced         []float64 // profiled timed steps, seconds
	failedSteps    int
	stats          exec.ScheduleStats
	prof           *exec.Profile
	psi            []float64 // final feedback field
}

// runComputeLarge is the library caller: for each arm in turn it sets up a
// fresh runner (state, compile, one untimed warm-up step), then times
// Runner.Run step by step. Every arm runs the same number of steps, as many
// as the first arm fits in its share of the run's seconds, and must end on a
// bit-identical psi. With trace, each arm then runs as many steps again with
// the executor's profiler on, the host roofline is measured first and the
// sequential reference checks the result last.
func runComputeLarge(cfg runConfig) (*outcome, error) {
	m, err := topology.UV2000(2)
	if err != nil {
		return nil, err
	}
	// One worker per host CPU: the two UV2000 islands keep their cache
	// model, but each gets NumCPU/2 workers instead of 8. With 16 workers
	// on 2 CPUs the step time tracked how much CPU the hypervisor granted
	// (README.md, "Left out").
	for i := range m.Nodes {
		m.Nodes[i].Cores = max(1, runtime.NumCPU()/len(m.Nodes))
	}
	prob := newAdvection(cfg.seed, largeDomain)
	prog := mpdata.NewProgram()
	out := &outcome{values: metrics{}}
	var roof roofline
	if cfg.trace {
		t0 := time.Now()
		roof = measureRoofline(cfg.host.L3Bytes)
		fmt.Printf("roofline: arrays of %d MiB each, L3 %d MiB\n", roof.arrayBytes>>20, cfg.host.L3Bytes>>20)
		cfg.spans.record("host.roofline", 0, -1, t0, time.Now())
		debug.FreeOSMemory()
	}

	runs := make([]*armRun, len(arms))
	steps := 0 // per arm, untraced; the first arm sizes it
	for ai, a := range arms {
		ec := exec.Config{Machine: m, Strategy: a.strategy, Boundary: stencil.Clamp, Steps: 1}
		r, n, err := measureArm(cfg, ai, ec, prog, prob, steps)
		if err != nil {
			return nil, fmt.Errorf("arm %s: %w", a.name, err)
		}
		runs[ai], steps = r, n
		planned := len(r.steps) + len(r.traced) + r.failedSteps
		out.attempted += planned
		out.failed += armFailures(runs[0].psi, r, planned)
		if ai > 0 {
			r.psi = nil
		}
		runtime.GC()
	}
	ref := runs[0].psi

	// Throughput is taken at each arm's median step, so a burst of
	// interference on a minority of steps does not move it.
	var all []float64
	var medians, setup float64
	for ai, r := range runs {
		fmt.Printf("arm %-8s steps=%d min=%.1fms p50=%.1fms p90=%.1fms compile=%.1fms\n", arms[ai].name, len(r.steps),
			1e3*quantile(r.steps, 0), 1e3*median(r.steps), 1e3*quantile(r.steps, 0.9), 1e3*median(r.compile))
		all = append(all, r.steps...)
		medians += median(r.steps)
		setup += median(r.setup)
	}
	cellsPerS := float64(len(arms)*largeDomain.Cells()) / medians
	v := out.values
	v.set("cells_per_s", cellsPerS, len(all))
	v.set("jobs_per_s", float64(len(arms))/medians, len(all))
	v.set("job_ms_p50", 1e3*median(all), len(all))
	v.set("job_ms_p90", 1e3*quantile(all, 0.9), len(all))
	v.set("setup_s", setup, setupReps)
	if cfg.trace {
		computeLayers(v, runs, roof, &prog.Program, cellsPerS)
		// The arms ran the warm-up step and every timed step.
		total := 1 + len(runs[0].steps) + len(runs[0].traced)
		refT, err := checkReference(cfg, prob, total, ref)
		if err != nil {
			return nil, err
		}
		out.attempted++
		if refT < 0 {
			out.failed++
		} else {
			v.set("mpdata.reference_cells_per_s",
				float64(largeDomain.Cells())*float64(total)/refT, total)
		}
	}
	return out, nil
}

// minSteps is the fewest timed steps an arm runs.
const minSteps = 3

// measureArm sets one arm up setupReps times (keeping the last runner),
// then runs n timed steps, and with trace n more with the profiler on. With
// n == 0 the arm sizes n itself: it steps until its share of cfg.seconds
// has passed, and returns the count for the other arms to repeat.
func measureArm(cfg runConfig, ai int, ec exec.Config, prog *stencil.KernelProgram, prob advection, n int) (*armRun, int, error) {
	r := &armRun{}
	armSpan := cfg.spans.begin("arm."+arms[ai].name, ai, -1, time.Now())
	var runner *exec.Runner
	var st *mpdata.State
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		st = prob.state(largeDomain)
		tc := time.Now()
		var err error
		runner, err = exec.NewRunner(ec, prog, st.InputMap(), mpdata.InPsi)
		if err != nil {
			return nil, 0, err
		}
		tw := time.Now()
		if err := runner.Run(); err != nil {
			runner.Close()
			return nil, 0, fmt.Errorf("warm-up step: %w", err)
		}
		te := time.Now()
		r.setup = append(r.setup, te.Sub(t0).Seconds())
		r.compile = append(r.compile, tw.Sub(tc).Seconds())
		setupSpan := cfg.spans.record("setup", ai, armSpan, t0, te)
		cfg.spans.record("exec.NewRunner", ai, setupSpan, tc, tw)
		cfg.spans.record("warm-up", ai, setupSpan, tw, te)
		if rep < setupReps-1 {
			runner.Close()
			runner, st = nil, nil
			runtime.GC()
		}
	}
	defer runner.Close()

	budget := time.Duration(cfg.seconds) * time.Second / time.Duration(len(arms))
	if cfg.trace {
		budget /= 2
	}
	sizing := n == 0
	// step runs one timed step and reports whether the runner still works.
	step := func(into *[]float64) bool {
		t0 := time.Now()
		err := runner.Run()
		d := time.Since(t0)
		cfg.spans.record("exec.Runner.Run", ai, armSpan, t0, t0.Add(d))
		if err != nil {
			fmt.Printf("check: arm %s step: %v\n", arms[ai].name, err)
			return false
		}
		*into = append(*into, d.Seconds())
		return true
	}
	start := time.Now()
	ok := true
	for ok {
		s := len(r.steps)
		if sizing && n == 0 && s >= minSteps && time.Since(start) >= budget {
			n = s
		}
		if n > 0 && s == n {
			break
		}
		ok = step(&r.steps)
	}
	if ok && cfg.trace {
		runner.EnableProfile(false)
		for s := 0; s < n && ok; s++ {
			ok = step(&r.traced)
		}
	}
	if !ok {
		// A failed Run poisons the runner: the step that failed and
		// every planned step after it count as failed.
		if sizing {
			n = len(r.steps) + 1
		}
		planned := n
		if cfg.trace {
			planned = 2 * n
		}
		r.failedSteps = planned - len(r.steps) - len(r.traced)
	}
	cfg.spans.end(armSpan, time.Now())
	r.stats = runner.Schedule().Stats()
	r.prof = runner.Profile()
	runner.SyncFeedback()
	r.psi = append([]float64(nil), st.Psi.Data...)
	return r, n, nil
}

// armFailures counts an arm's failed steps. Every arm's final psi must be
// bit-identical to the first arm's (ref); an arm that ends elsewhere fails
// all of its planned steps, and a runner that failed fails the steps it
// could not run.
func armFailures(ref []float64, r *armRun, planned int) int {
	if r.failedSteps > 0 {
		return r.failedSteps
	}
	if !bitIdentical(ref, r.psi) {
		fmt.Println("check: an arm's final psi differs from the first arm's")
		return planned
	}
	return 0
}

// checkReference runs the sequential MPDATA solver for steps on the seeded
// problem and compares its psi with want. It returns the solver's wall
// seconds, or -1 on a mismatch.
func checkReference(cfg runConfig, prob advection, steps int, want []float64) (float64, error) {
	st := prob.state(largeDomain)
	sol, err := mpdata.NewSolver(st)
	if err != nil {
		return 0, err
	}
	sol.SetBoundary(stencil.Clamp)
	t0 := time.Now()
	sol.Step(steps)
	d := time.Since(t0)
	cfg.spans.record("mpdata.Solver.Step", len(arms), -1, t0, t0.Add(d))
	if !bitIdentical(want, st.Psi.Data) {
		fmt.Println("check: arms differ from the sequential reference")
		return -1, nil
	}
	return d.Seconds(), nil
}

// bitIdentical reports whether two fields hold the same float64 bit
// patterns.
func bitIdentical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// computeLayers derives the compute per-layer metrics from the arms'
// schedule stats and profiles and the host roofline.
func computeLayers(v metrics, runs []*armRun, roof roofline, prog *stencil.Program, cellsPerS float64) {
	cells := float64(largeDomain.Cells())
	var profiled, plain []float64
	for ai, r := range runs {
		name := arms[ai].name
		v.set("exec.step_ms."+name, 1e3*median(r.steps), len(r.steps))
		v.set("exec.compile_ms."+name, 1e3*median(r.compile), len(r.compile))
		v.set("exec.barrier_waits."+name, float64(r.stats.BarrierWaits), 1)
		if name == "islands" {
			v.set("exec.halo_bytes.islands", float64(r.stats.HaloBytes), 1)
		}
		profiled = append(profiled, median(r.traced))
		plain = append(plain, median(r.steps))
		p := r.prof
		if p == nil || p.Steps == 0 {
			continue
		}
		var barrier, join time.Duration
		groups := make([]time.Duration, mpdataGroups)
		for _, ph := range p.Phases {
			barrier += ph.Barrier()
			if ph.Group < 0 {
				join += ph.Compute + ph.Barrier()
			} else if ph.Group < mpdataGroups {
				groups[ph.Group] += ph.Compute
			}
		}
		workers := float64(p.Workers)
		v.set("sched.barrier_share."+name, barrier.Seconds()/(workers*p.Wall.Seconds()), p.Steps)
		if arms[ai].strategy == exec.IslandsOfCores {
			v.set("exec.halo_ms."+name, 1e3*join.Seconds()/(workers*float64(p.Steps)), p.Steps)
		}
		imb := 0.0
		for _, ip := range p.Islands {
			imb = max(imb, ip.ImbalancePct())
		}
		v.set("exec.imbalance_pct."+name, imb, p.Steps)
		if name == "islands" {
			for g, d := range groups {
				v.set(fmt.Sprintf("stencil.group_ns_per_cell.g%d", g),
					float64(d.Nanoseconds())/(cells*float64(p.Steps)), p.Steps)
			}
		}
	}
	// Tracing overhead: profiled against unprofiled step time, summed over
	// the arms' medians.
	var pt, ut float64
	for i := range profiled {
		pt += profiled[i]
		ut += plain[i]
	}
	v.set("trace.overhead_pct", 100*(pt-ut)/ut, len(runs))

	// Roofline. The computed traffic is the compulsory one: the five step
	// inputs read and psi written once per cell and step.
	flops := float64(prog.TotalFlopsPerCellStep())
	bytesPerCell := float64(8 * (len(prog.StepInputs) + 1))
	intensity := flops / bytesPerCell
	gflops := flops * cellsPerS / 1e9
	roofG := min(roof.fmaGflops, roof.triadGBs*intensity)
	v.set("kernel.gflops", gflops, 1)
	v.set("kernel.roof_share", gflops/roofG, 1)
	v.set("kernel.intensity_computed", intensity, 1)
	v.set("kernel.bytes_per_cell_computed", bytesPerCell, 1)
	v.set("host.copy_gbs", roof.copyGBs, roofReps)
	v.set("host.triad_gbs", roof.triadGBs, roofReps)
	v.set("host.fma_gflops", roof.fmaGflops, 1)
}
