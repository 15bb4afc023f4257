package exec

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// readGuard wraps every kernel of a program so each invocation checks that
// the reads its declared input extent allows stay inside the environment's
// window. Fast kernels index flat through Env.Step, which resolves pinned
// border dimensions, so their reads must land inside the local arrays. The
// combined and slow kernels resolve reads through Env.AtP, which clamps at
// the local edges — correct only where the window reaches a domain face.
type readGuard struct {
	domain     grid.Size
	violations atomic.Int64
	first      atomic.Value // string
}

func (g *readGuard) wrap(k stencil.Kernel, ext stencil.Extent, clamps bool) stencil.Kernel {
	if k == nil {
		return nil
	}
	return func(env *stencil.Env, r grid.Region) {
		g.check(env, r, ext, clamps)
		k(env, r)
	}
}

func (g *readGuard) check(env *stencil.Env, r grid.Region, ext stencil.Extent, clamps bool) {
	d := env.Domain
	size := [3]int{d.NI, d.NJ, d.NK}
	stride := [3]int{d.NJ * d.NK, d.NK, 1}
	lo := [3]int{r.I0, r.J0, r.K0}
	hi := [3]int{r.I1 - 1, r.J1 - 1, r.K1 - 1}
	elo := [3]int{ext.ILo, ext.JLo, ext.KLo}
	ehi := [3]int{ext.IHi, ext.JHi, ext.KHi}
	atLo := [3]bool{env.Window.I0 == 0, env.Window.J0 == 0, env.Window.K0 == 0}
	atHi := [3]bool{env.Window.I1 == g.domain.NI, env.Window.J1 == g.domain.NJ, env.Window.K1 == g.domain.NK}
	for dim := 0; dim < 3; dim++ {
		// Extreme reads in local coordinates.
		first := lo[dim] + env.Step(dim, -elo[dim])/stride[dim]
		last := hi[dim] + env.Step(dim, ehi[dim])/stride[dim]
		if clamps && first < 0 && atLo[dim] {
			first = 0
		}
		if clamps && last >= size[dim] && atHi[dim] {
			last = size[dim] - 1
		}
		if first < 0 || last >= size[dim] {
			if g.violations.Add(1) == 1 {
				g.first.Store(fmt.Sprintf("window %v: region %v reads [%d,%d] along dim %d of %d",
					env.Window, r, first, last, dim, size[dim]))
			}
		}
	}
}

// guarded returns a copy of prog whose kernels run under the read guard.
func (g *readGuard) guarded(prog *stencil.KernelProgram) *stencil.KernelProgram {
	out := *prog
	out.Kernels = make([]stencil.Kernel, len(prog.Kernels))
	out.FastKernels = make([]stencil.Kernel, len(prog.FastKernels))
	out.SlowKernels = make([]stencil.Kernel, len(prog.SlowKernels))
	for s := range prog.Stages {
		ext := stencil.InputsExtent(prog.Stages[s].Inputs)
		out.Kernels[s] = g.wrap(prog.Kernels[s], ext, true)
		if prog.FastKernels != nil {
			out.FastKernels[s] = g.wrap(prog.FastKernels[s], ext, false)
			out.SlowKernels[s] = g.wrap(prog.SlowKernels[s], ext, true)
		}
	}
	out.Fused = nil
	for _, fk := range prog.Fused {
		var ext stencil.Extent
		for _, name := range fk.Stages {
			ext = ext.Max(stencil.InputsExtent(prog.Stages[prog.StageIndex(name)].Inputs))
		}
		fk.Fast = g.wrap(fk.Fast, ext, false)
		out.Fused = append(out.Fused, fk)
	}
	return &out
}

// TestCoreIslandsWindowedFootprint pins the windowed core-islands
// environments on UV2000(2). At 48x32x8 the environments hold at most 25 %
// of the full-domain arrays (16 workers x (17 stage outputs + 1 private
// feedback)), and the whole runner allocates at most 25 % of what it would
// with full-domain environments. At 48x32x8 (k = 1) and 48x64x8 (k = 2,
// whose sub-parts carry the widened halo) every kernel reads only inside
// its window, and the results stay bit-identical to the original strategy.
func TestCoreIslandsWindowedFootprint(t *testing.T) {
	m, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 4
	prog := mpdata.NewProgram()
	workers := m.TotalCores()
	for _, tc := range []struct {
		domain    grid.Size
		k         int
		footprint bool
	}{{grid.Sz(48, 32, 8), 1, true}, {grid.Sz(48, 64, 8), 2, false}} {
		domain, k := tc.domain, tc.k
		ref := freshState(domain)
		orig, err := NewRunner(Config{Machine: m, Strategy: Original, Boundary: stencil.Clamp, Steps: steps},
			prog, ref.InputMap(), mpdata.InPsi)
		if err != nil {
			t.Fatal(err)
		}
		err = orig.Run()
		orig.Close()
		if err != nil {
			t.Fatal(err)
		}

		cfg := Config{Machine: m, Strategy: IslandsOfCores, Boundary: stencil.Clamp,
			Steps: steps, BlockI: 8, CoreIslands: true, KSteps: k}
		g := &readGuard{domain: domain}
		state := freshState(domain)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		runner, err := NewRunner(cfg, g.guarded(prog), state.InputMap(), mpdata.InPsi)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		st := runner.Schedule().Stats()
		if st.KSteps != k || st.Feedback != FeedbackSwapHalo {
			t.Fatalf("%v k=%d: compiled ksteps=%d feedback=%s (%s), want swap+halo at k",
				domain, k, st.KSteps, st.Feedback, st.KStepFallbackReason)
		}
		if st.WindowedEnvs != workers || st.WindowFallbackReason != "" {
			t.Fatalf("%v k=%d: %d windowed envs (fallback %q), want all %d",
				domain, k, st.WindowedEnvs, st.WindowFallbackReason, workers)
		}
		// Full-domain environments: every worker holds each stage output
		// plus its private feedback copy over the whole domain. The rest of
		// the runner's allocation (plan, compiled items) is the same either
		// way.
		fullEnvs := int64(workers*(len(prog.Stages)+1)) * int64(domain.Cells()) * grid.CellBytes
		alloc := int64(after.TotalAlloc - before.TotalAlloc)
		fullRunner := alloc - st.EnvBytes + fullEnvs
		t.Logf("%v k=%d: envs %d B = %.1f%% of %d B full-domain envs; runner %d B = %.1f%% of %d B",
			domain, k, st.EnvBytes, 100*float64(st.EnvBytes)/float64(fullEnvs), fullEnvs,
			alloc, 100*float64(alloc)/float64(fullRunner), fullRunner)
		if tc.footprint && (4*st.EnvBytes > fullEnvs || 4*alloc > fullRunner) {
			t.Fatalf("%v: envs %d B of %d B, runner %d B of %d B — want both <= 25%%",
				domain, st.EnvBytes, fullEnvs, alloc, fullRunner)
		}

		err = runner.Run()
		runner.SyncFeedback()
		runner.Close()
		// The guard runs before each kernel, so a stray read is reported
		// even when it then crashes the kernel.
		if n := g.violations.Load(); n != 0 {
			t.Fatalf("%v k=%d: %d kernel invocations read outside their window; first: %v", domain, k, n, g.first.Load())
		}
		if err != nil {
			t.Fatal(err)
		}
		if d := grid.MaxAbsDiff(ref.Psi, state.Psi); d != 0 {
			t.Fatalf("%v k=%d: windowed core islands differ from original by %g", domain, k, d)
		}
	}
}

// TestCoreIslandsWindowFallbacks: the periodic boundary and the copy-mode
// feedback keep full-domain core-islands environments, and say why.
func TestCoreIslandsWindowFallbacks(t *testing.T) {
	m, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	domain := grid.Sz(48, 32, 8)
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"periodic", Config{Boundary: stencil.Periodic}, "periodic"},
		{"copy", Config{Boundary: stencil.Clamp, DisableHaloExchange: true}, "copy-mode"},
	} {
		cfg := tc.cfg
		cfg.Machine, cfg.Strategy, cfg.Steps, cfg.CoreIslands = m, IslandsOfCores, 1, true
		state := freshState(domain)
		runner, err := NewRunner(cfg, mpdata.NewProgram(), state.InputMap(), mpdata.InPsi)
		if err != nil {
			t.Fatal(err)
		}
		st := runner.Schedule().Stats()
		runner.Close()
		if st.WindowedEnvs != 0 || !strings.Contains(st.WindowFallbackReason, tc.want) {
			t.Fatalf("%s: %d windowed envs, fallback %q — want none, reason naming %q",
				tc.name, st.WindowedEnvs, st.WindowFallbackReason, tc.want)
		}
		if !strings.Contains(st.String(), "window fallback") {
			t.Fatalf("%s: stats line %q does not report the window fallback", tc.name, st)
		}
	}
}
