// Package heat provides a homogeneous stencil program — k fused iterations
// of 7-point Jacobi diffusion — as a counterpoint to MPDATA's heterogeneous
// stage graph. The paper positions itself against overlapped tiling for
// homogeneous stencils (Guo et al. [6], Zhou et al. [26], §1): this package
// reproduces that baseline inside the same framework, so the islands
// machinery (halo analysis, trapezoids, executors, machine model) can be
// compared across the two regimes.
package heat

import (
	"fmt"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// In is the program's single step input.
const In = "t0"

// Alpha is the diffusion coefficient of the Jacobi update (stability
// requires Alpha <= 1/6 in 3D).
const Alpha = 1.0 / 8

// NewProgram builds k fused Jacobi iterations: stage s computes
//
//	t[s] = t[s-1] + alpha * (sum of 6 neighbours - 6*center)
//
// Each stage has the same 7-point pattern — a homogeneous chain whose
// backward halo analysis produces the classic overlapped-tiling trapezoids
// (one cell per side per fused step).
func NewProgram(k int) (*stencil.KernelProgram, error) {
	if k < 1 {
		return nil, fmt.Errorf("heat: need at least one iteration, got %d", k)
	}
	sevenPoint := []stencil.Offset{
		{DI: 0, DJ: 0, DK: 0},
		{DI: -1}, {DI: 1},
		{DJ: -1}, {DJ: 1},
		{DK: -1}, {DK: 1},
	}
	var stages []stencil.KernelStage
	prev := In
	for s := 1; s <= k; s++ {
		name := fmt.Sprintf("t%d", s)
		in := prev
		inputs := []stencil.Input{{From: in, Offsets: sevenPoint}}
		slow := func(env *stencil.Env, r grid.Region) {
			src, out := env.Field(in), env.Field(name)
			stencil.ForEach(r, func(i, j, k int) {
				out.Set(i, j, k, jacobiAt(env, src, i, j, k))
			})
		}
		fast := func(env *stencil.Env, r grid.Region) {
			src, out := env.Field(in).Data, env.Field(name).Data
			siN, siP := env.Step(0, -1), env.Step(0, 1)
			sjN, sjP := env.Step(1, -1), env.Step(1, 1)
			skN, skP := env.Step(2, -1), env.Step(2, 1)
			nk := r.K1 - r.K0
			stencil.ForEachRow(env.Domain, r, func(_, _, base int) {
				// Re-sliced rows of one length: the loop carries no bounds
				// checks.
				row := out[base : base+nk : base+nk]
				c := src[base:][:len(row)]
				im, ip := src[base+siN:][:len(row)], src[base+siP:][:len(row)]
				jm, jp := src[base+sjN:][:len(row)], src[base+sjP:][:len(row)]
				km, kp := src[base+skN:][:len(row)], src[base+skP:][:len(row)]
				for x := range row {
					row[x] = jacobi(c[x], im[x], ip[x], jm[x], jp[x], km[x], kp[x])
				}
			})
		}
		stages = append(stages, stencil.KernelStage{
			Stage: stencil.Stage{
				Name:   name,
				Inputs: inputs,
				Flops:  9, // 5 adds + center scale + alpha multiply + update
			},
			Kernel: slow, Fast: fast, Slow: slow,
		})
		prev = name
	}
	kp, err := stencil.BuildProgram(fmt.Sprintf("heat-jacobi%d", k), []string{In}, prev, stages)
	if err != nil {
		return nil, err
	}
	// The output becomes the next step's t0: declaring the feedback input
	// lets the executor temporally block the iteration (exec.Config.KSteps).
	kp.Program.Feedback = In
	return kp, nil
}

// jacobi is one Jacobi update from a cell's value and its six face
// neighbours. It is the only copy of the per-cell arithmetic: the fast row
// kernel, the per-cell slow kernel and Reference all call it, so the three
// perform the identical float sequence (the bit-identity contract).
func jacobi(c, im, ip, jm, jp, km, kp float64) float64 {
	lap := im + ip + jm + jp + km + kp - 6*c
	return c + Alpha*lap
}

// jacobiAt is jacobi at one cell through boundary-resolving reads — the
// gather of the slow kernel and Reference.
func jacobiAt(env *stencil.Env, f *grid.Field, i, j, k int) float64 {
	return jacobi(f.At(i, j, k),
		env.AtP(f, i-1, j, k), env.AtP(f, i+1, j, k),
		env.AtP(f, i, j-1, k), env.AtP(f, i, j+1, k),
		env.AtP(f, i, j, k-1), env.AtP(f, i, j, k+1))
}

// Reference advances the field by steps*k Jacobi iterations sequentially
// (one iteration at a time over the whole domain) under the given boundary
// condition — the check for the fused program's executors.
func Reference(t0 *grid.Field, iterations int, bc stencil.Boundary) *grid.Field {
	cur := t0.Clone()
	next := grid.NewField("next", t0.Size)
	env := &stencil.Env{Domain: t0.Size, BC: bc}
	for it := 0; it < iterations; it++ {
		stencil.ForEach(grid.WholeRegion(t0.Size), func(i, j, k int) {
			next.Set(i, j, k, jacobiAt(env, cur, i, j, k))
		})
		cur, next = next, cur
	}
	return cur
}
