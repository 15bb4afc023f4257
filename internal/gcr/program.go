package gcr

import (
	"fmt"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// This file is the compiled-path face of the package (docs/SOLVERS.md): the
// damped-Jacobi smoother — the preconditioner of EULAG-style preconditioned
// GCR (reference [3]) — expressed as a stencil program so the islands
// executor compiles, fuses, halo-exchanges and temporally blocks it like any
// other catalog solver. The full GCR(k) Krylov iteration stays in gcr.go as
// a sequential solver: its global inner products need a reduction every
// iteration and do not fit a per-step stage DAG.

// Step-input names of the smoother program.
const (
	// InX is the evolving iterate (the program's feedback field).
	InX = "x"
	// InB is the right-hand side.
	InB = "b"
)

// Omega is the damped-Jacobi relaxation weight (2/3, the classic choice
// that damps all high-frequency error modes of the 7-point operator).
const Omega = 2.0 / 3

// NewSmootherProgram builds one damped-Jacobi sweep on the 7-point operator
// A = 6·c − Σ neighbours (boundary reads resolved by the executor's
// boundary condition) as a two-stage program:
//
//	ax   = A·x
//	xnew = x + (Omega/6)·(b − ax)
//
// The iterate is the feedback input, so the executor's swap/halo/k-step
// machinery advances the relaxation; b rides along as a constant step input.
func NewSmootherProgram() (*stencil.KernelProgram, error) {
	sevenPoint := []stencil.Offset{
		{DI: 0, DJ: 0, DK: 0},
		{DI: -1}, {DI: 1},
		{DJ: -1}, {DJ: 1},
		{DK: -1}, {DK: 1},
	}
	point := []stencil.Offset{{}}
	axSlow := func(env *stencil.Env, r grid.Region) {
		x, out := env.Field(InX), env.Field("ax")
		stencil.ForEach(r, func(i, j, k int) {
			out.Set(i, j, k, applyA(env, x, i, j, k))
		})
	}
	axFast := func(env *stencil.Env, r grid.Region) {
		x, out := env.Field(InX).Data, env.Field("ax").Data
		siN, siP := env.Step(0, -1), env.Step(0, 1)
		sjN, sjP := env.Step(1, -1), env.Step(1, 1)
		skN, skP := env.Step(2, -1), env.Step(2, 1)
		nk := r.K1 - r.K0
		stencil.ForEachRow(env.Domain, r, func(_, _, base int) {
			// Re-sliced rows of one length: the loop carries no bounds
			// checks.
			row := out[base : base+nk : base+nk]
			c := x[base:][:len(row)]
			im, ip := x[base+siN:][:len(row)], x[base+siP:][:len(row)]
			jm, jp := x[base+sjN:][:len(row)], x[base+sjP:][:len(row)]
			km, kp := x[base+skN:][:len(row)], x[base+skP:][:len(row)]
			for n := range row {
				row[n] = opA(c[n], im[n], ip[n], jm[n], jp[n], km[n], kp[n])
			}
		})
	}
	xnewSlow := func(env *stencil.Env, r grid.Region) {
		ax, x, b := env.Field("ax"), env.Field(InX), env.Field(InB)
		out := env.Field("xnew")
		stencil.ForEach(r, func(i, j, k int) {
			out.Set(i, j, k, relax(x.At(i, j, k), b.At(i, j, k), ax.At(i, j, k)))
		})
	}
	xnewFast := func(env *stencil.Env, r grid.Region) {
		ax, x, b := env.Field("ax").Data, env.Field(InX).Data, env.Field(InB).Data
		out := env.Field("xnew").Data
		nk := r.K1 - r.K0
		stencil.ForEachRow(env.Domain, r, func(_, _, base int) {
			row := out[base : base+nk : base+nk]
			xs, bs, as := x[base:][:len(row)], b[base:][:len(row)], ax[base:][:len(row)]
			for n := range row {
				row[n] = relax(xs[n], bs[n], as[n])
			}
		})
	}
	stages := []stencil.KernelStage{
		{
			Stage: stencil.Stage{
				Name:   "ax",
				Inputs: []stencil.Input{{From: InX, Offsets: sevenPoint}},
				Flops:  7,
			},
			Kernel: axSlow, Fast: axFast, Slow: axSlow,
		},
		{
			Stage: stencil.Stage{
				Name: "xnew",
				Inputs: []stencil.Input{
					{From: "ax", Offsets: point},
					{From: InX, Offsets: point},
					{From: InB, Offsets: point},
				},
				Flops: 4,
			},
			Kernel: xnewSlow, Fast: xnewFast, Slow: xnewSlow,
		},
	}
	kp, err := stencil.BuildProgram("gcr-smoother", []string{InX, InB}, "xnew", stages)
	if err != nil {
		return nil, err
	}
	kp.Program.Feedback = InX
	return kp, nil
}

// applyA evaluates the 7-point operator at one cell through
// boundary-resolving reads — the gather of the slow kernel and
// SmootherReference. The fast row kernel gathers by flat strides instead;
// all three share the arithmetic of opA and relax, so they perform the
// identical float operation sequence (the bit-identity contract).
func applyA(env *stencil.Env, x *grid.Field, i, j, k int) float64 {
	return opA(x.At(i, j, k),
		env.AtP(x, i-1, j, k), env.AtP(x, i+1, j, k),
		env.AtP(x, i, j-1, k), env.AtP(x, i, j+1, k),
		env.AtP(x, i, j, k-1), env.AtP(x, i, j, k+1))
}

// opA is the 7-point operator A = 6·c − Σ neighbours from the cell value
// and its six face neighbours.
func opA(c, im, ip, jm, jp, km, kp float64) float64 {
	return 6*c - im - ip - jm - jp - km - kp
}

// relax is the damped-Jacobi update at one cell (see applyA).
func relax(x, b, ax float64) float64 { return x + Omega/6*(b-ax) }

// SmootherReference advances x by the given number of damped-Jacobi sweeps
// sequentially — two whole-domain passes per sweep, mirroring the program's
// stage split — and is the bit-identity oracle of the compiled smoother.
func SmootherReference(x, b *grid.Field, sweeps int, bc stencil.Boundary) error {
	if x.Size != b.Size {
		return fmt.Errorf("gcr: x is %v but b is %v", x.Size, b.Size)
	}
	env := &stencil.Env{Domain: x.Size, BC: bc}
	ax := grid.NewField("gcr.ref.ax", x.Size)
	next := grid.NewField("gcr.ref.next", x.Size)
	whole := grid.WholeRegion(x.Size)
	for s := 0; s < sweeps; s++ {
		stencil.ForEach(whole, func(i, j, k int) {
			ax.Set(i, j, k, applyA(env, x, i, j, k))
		})
		stencil.ForEach(whole, func(i, j, k int) {
			next.Set(i, j, k, relax(x.At(i, j, k), b.At(i, j, k), ax.At(i, j, k)))
		})
		x.CopyFrom(next)
	}
	return nil
}
