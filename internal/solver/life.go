package solver

import (
	"islands/internal/grid"
	"islands/internal/stencil"
)

// Conway's game of life — the boolean cellular automaton of the catalog.
// Cells hold exactly 0.0 or 1.0, so float arithmetic is exact and the
// bit-identity contract degenerates to logical equality, which makes life
// the sharpest cross-strategy smoke test: any halo or trapezoid bug flips a
// cell. Each k slice evolves as an independent 2D board (Moore
// neighbourhood in i,j), so any NK is accepted and the k axis carries a
// stack of boards instead of packed components.

const lifeIn = "cells"

func init() {
	var moore []stencil.Offset
	for di := -1; di <= 1; di++ {
		for dj := -1; dj <= 1; dj++ {
			moore = append(moore, stencil.Offset{DI: di, DJ: dj})
		}
	}
	slow := func(env *stencil.Env, r grid.Region) {
		src, out := env.Field(lifeIn), env.Field("next")
		stencil.ForEach(r, func(i, j, k int) {
			out.Set(i, j, k, lifeCell(env, src, i, j, k))
		})
	}
	fast := func(env *stencil.Env, r grid.Region) {
		src, out := env.Field(lifeIn).Data, env.Field("next").Data
		// The eight neighbour displacements, resolved under the env's
		// border binding.
		var d [8]int
		nb := 0
		for _, o := range moore {
			if o != (stencil.Offset{}) {
				d[nb] = env.OffsetStride(o)
				nb++
			}
		}
		forEachSpan(env.Domain, r, func(base, n int) {
			row := out[base : base+n : base+n]
			c := src[base:][:len(row)]
			n0, n1 := src[base+d[0]:][:len(row)], src[base+d[1]:][:len(row)]
			n2, n3 := src[base+d[2]:][:len(row)], src[base+d[3]:][:len(row)]
			n4, n5 := src[base+d[4]:][:len(row)], src[base+d[5]:][:len(row)]
			n6, n7 := src[base+d[6]:][:len(row)], src[base+d[7]:][:len(row)]
			for x := range row {
				live := lifeLive(n0[x]) + lifeLive(n1[x]) + lifeLive(n2[x]) + lifeLive(n3[x]) +
					lifeLive(n4[x]) + lifeLive(n5[x]) + lifeLive(n6[x]) + lifeLive(n7[x])
				row[x] = lifeRule(c[x], live)
			}
		})
	}
	stages := []stencil.KernelStage{
		{
			Stage: stencil.Stage{
				Name:   "next",
				Inputs: []stencil.Input{{From: lifeIn, Offsets: moore}},
				Flops:  10,
			},
			Kernel: slow, Fast: fast, Slow: slow,
		},
	}
	newProgram := func(Options) (*stencil.KernelProgram, error) {
		kp, err := stencil.BuildProgram("game-of-life", []string{lifeIn}, "next", stages)
		if err != nil {
			return nil, err
		}
		kp.Program.Feedback = lifeIn
		return kp, nil
	}
	Register(&Entry{
		Name:        "life",
		Description: "Conway's game of life (boolean CA, one independent board per k slice)",
		NewProgram:  newProgram,
		NewState: func(domain grid.Size) (*State, error) {
			return newState(domain, lifeIn, lifeIn), nil
		},
		SetProblem: func(st *State) { lifeSetProblem(st.Output()) },
		Reference:  lifeReference,
	})
}

// lifeCell evaluates the rule at one cell through boundary-resolving reads
// — the gather of the slow kernel and lifeReference. The Clamp boundary
// replicates edge cells into the outside (edges see their own value as the
// missing neighbours), Periodic is the usual torus.
func lifeCell(env *stencil.Env, src *grid.Field, i, j, k int) float64 {
	var live int
	for di := -1; di <= 1; di++ {
		for dj := -1; dj <= 1; dj++ {
			if di != 0 || dj != 0 {
				live += lifeLive(env.AtP(src, i+di, j+dj, k))
			}
		}
	}
	return lifeRule(src.At(i, j, k), live)
}

// lifeLive counts a neighbour: any non-zero cell is alive.
func lifeLive(v float64) int {
	if v != 0 {
		return 1
	}
	return 0
}

// lifeRule is B3/S23 for a cell of value c with live live neighbours — the
// per-cell rule shared by the fast row kernel, the slow kernel and the
// reference.
func lifeRule(c float64, live int) float64 {
	if live == 3 || (c != 0 && live == 2) {
		return 1
	}
	return 0
}

// lifeSetProblem seeds a deterministic ~40% soup from a cell-coordinate
// hash — reproducible across runs and execution modes without any RNG
// state.
func lifeSetProblem(f *grid.Field) {
	f.FillFunc(func(i, j, k int) float64 {
		h := uint32(i*73856093) ^ uint32(j*19349663) ^ uint32(k*83492791)
		h ^= h >> 13
		h *= 2654435761
		h ^= h >> 16
		if h%5 < 2 {
			return 1
		}
		return 0
	})
}

// lifeReference advances the boards sequentially — an independent loop over
// the rule, not the kernel.
func lifeReference(st *State, steps int, bc stencil.Boundary, _ Options) error {
	f := st.Output()
	next := grid.NewField("life.ref.next", st.Domain)
	env := &stencil.Env{Domain: st.Domain, BC: bc}
	whole := grid.WholeRegion(st.Domain)
	for t := 0; t < steps; t++ {
		stencil.ForEach(whole, func(i, j, k int) {
			next.Set(i, j, k, lifeCell(env, f, i, j, k))
		})
		f.CopyFrom(next)
	}
	return nil
}
