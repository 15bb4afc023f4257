package solver

import (
	"math"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// 2D shallow-water equations in flux form, advanced by a Lax-Friedrichs
// step — the nonlinear, multi-component workload. The three conserved
// unknowns (h, hu, hv) pack along the k axis (NK must be exactly 3, the
// component-axis convention of docs/SOLVERS.md). The stage DAG is the
// catalog's widest: two sibling flux stages (fx, gy) both read the packed
// state column, and the combiner stage reads the state plus both flux
// fields at neighbor offsets — a diamond, not a chain, so fusion and halo
// composition are exercised on branching structure.

// Packed component indices along k.
const (
	sweH  = 0 // water depth h
	sweHU = 1 // x momentum h·u
	sweHV = 2 // y momentum h·v
	sweNC = 3
)

// sweG is the (scaled) gravitational constant and sweDtDx the time step over
// cell size; with depth near 1 the gravity-wave speed is ~1, so dt/dx = 0.2
// sits comfortably inside the Lax-Friedrichs stability bound.
const (
	sweG    = 1.0
	sweDtDx = 0.2
)

const sweIn = "u"

func init() {
	columnOffsets := make([]stencil.Offset, 0, 2*sweNC-1)
	for dk := -(sweNC - 1); dk <= sweNC-1; dk++ {
		columnOffsets = append(columnOffsets, stencil.Offset{DK: dk})
	}
	iNbrs := []stencil.Offset{{DI: -1}, {DI: 1}}
	jNbrs := []stencil.Offset{{DJ: -1}, {DJ: 1}}
	cross := []stencil.Offset{{DI: -1}, {DI: 1}, {DJ: -1}, {DJ: 1}}
	// The two flux stages share one builder: the y flux is the x flux with
	// the roles of the two momenta exchanged.
	fluxStage := func(name string, nrm int) stencil.KernelStage {
		slow := func(env *stencil.Env, r grid.Region) {
			u, out := env.Field(sweIn), env.Field(name)
			stencil.ForEach(r, func(i, j, c int) {
				out.Set(i, j, c, sweFluxAt(u, i, j, c, nrm))
			})
		}
		fast := func(env *stencil.Env, r grid.Region) {
			u, out := env.Field(sweIn).Data, env.Field(name).Data
			b0, di, cols := columnRows(env, r, sweNC)
			for c := r.K0; c < r.K1; c++ {
				// The cell's own column, read through the env's border
				// binding. A row's component-c cells sit at x = 0, sweNC,
				// ... of [b+c, b+c+n): rows of one length, walked by an
				// unsigned index, carry no bounds checks.
				dh, dhu, dhv := env.Step(2, sweH-c), env.Step(2, sweHU-c), env.Step(2, sweHV-c)
				n := (cols-1)*sweNC + 1
				for i, b := r.I0, b0+c; i < r.I1; i, b = i+1, b+di {
					row := out[b:][:n]
					h, hu, hv := u[b+dh:][:n], u[b+dhu:][:n], u[b+dhv:][:n]
					for x := uint(0); x < uint(len(row)); x += sweNC {
						row[x] = sweFlux(h[x], hu[x], hv[x], c, nrm)
					}
				}
			}
		}
		return stencil.KernelStage{
			Stage: stencil.Stage{
				Name:   name,
				Inputs: []stencil.Input{{From: sweIn, Offsets: columnOffsets}},
				Flops:  6,
			},
			Kernel: slow, Fast: fast, Slow: slow,
		}
	}
	updateSlow := func(env *stencil.Env, r grid.Region) {
		u, fx, gy := env.Field(sweIn), env.Field("fx"), env.Field("gy")
		out := env.Field("unew")
		stencil.ForEach(r, func(i, j, c int) {
			out.Set(i, j, c, sweUpdate(env, u, fx, gy, i, j, c))
		})
	}
	updateFast := func(env *stencil.Env, r grid.Region) {
		u, fx, gy := env.Field(sweIn).Data, env.Field("fx").Data, env.Field("gy").Data
		out := env.Field("unew").Data
		siN, siP := env.Step(0, -1), env.Step(0, 1)
		sjN, sjP := env.Step(1, -1), env.Step(1, 1)
		// Every read is in-plane (no k offset), so whole i planes are runs.
		forEachSpan(env.Domain, r, func(base, n int) {
			row := out[base : base+n : base+n]
			uim, uip := u[base+siN:][:len(row)], u[base+siP:][:len(row)]
			ujm, ujp := u[base+sjN:][:len(row)], u[base+sjP:][:len(row)]
			fim, fip := fx[base+siN:][:len(row)], fx[base+siP:][:len(row)]
			gjm, gjp := gy[base+sjN:][:len(row)], gy[base+sjP:][:len(row)]
			for x := range row {
				row[x] = sweLaxFriedrichs(uim[x], uip[x], ujm[x], ujp[x], fim[x], fip[x], gjm[x], gjp[x])
			}
		})
	}
	stages := []stencil.KernelStage{
		fluxStage("fx", sweHU),
		fluxStage("gy", sweHV),
		{
			Stage: stencil.Stage{
				Name: "unew",
				Inputs: []stencil.Input{
					{From: sweIn, Offsets: cross},
					{From: "fx", Offsets: iNbrs},
					{From: "gy", Offsets: jNbrs},
				},
				Flops: 10,
			},
			Kernel: updateSlow, Fast: updateFast, Slow: updateSlow,
		},
	}
	newProgram := func(Options) (*stencil.KernelProgram, error) {
		kp, err := stencil.BuildProgram("shallow-water", []string{sweIn}, "unew", stages)
		if err != nil {
			return nil, err
		}
		kp.Program.Feedback = sweIn
		return kp, nil
	}
	Register(&Entry{
		Name:        "swe",
		Description: "2D shallow-water, Lax-Friedrichs flux form (h, hu, hv packed along k)",
		CheckDomain: requireNK(sweNC, "the conserved components h, hu, hv pack along the k axis"),
		NewProgram:  newProgram,
		NewState: func(domain grid.Size) (*State, error) {
			return newState(domain, sweIn, sweIn), nil
		},
		SetProblem: func(st *State) { sweSetProblem(st.Output(), st.Domain) },
		Reference:  sweReference,
	})
}

// sweFlux returns component c of the flux F(U) (x direction, normal
// momentum nrm = sweHU) or G(U) (y direction, nrm = sweHV) of a packed
// state column. It and sweLaxFriedrichs are the only copies of the
// per-cell arithmetic: the fast kernels, the slow kernels and sweReference
// all call them, so they perform the identical float sequence.
func sweFlux(h, hu, hv float64, c, nrm int) float64 {
	qn := hu
	if nrm == sweHV {
		qn = hv
	}
	switch c {
	case sweH:
		return qn
	case nrm:
		return qn*qn/h + 0.5*sweG*h*h
	default:
		return hu * hv / h
	}
}

// sweFluxAt returns sweFlux at cell (i,j,c) — the gather of the slow
// kernels and sweReference. All reads are in-domain on the packed column.
func sweFluxAt(u *grid.Field, i, j, c, nrm int) float64 {
	return sweFlux(u.At(i, j, sweH), u.At(i, j, sweHU), u.At(i, j, sweHV), c, nrm)
}

// sweUpdate is sweLaxFriedrichs at cell (i,j,c) through boundary-resolving
// reads — the gather of the slow kernel and sweReference.
func sweUpdate(env *stencil.Env, u, fx, gy *grid.Field, i, j, c int) float64 {
	return sweLaxFriedrichs(
		env.AtP(u, i-1, j, c), env.AtP(u, i+1, j, c),
		env.AtP(u, i, j-1, c), env.AtP(u, i, j+1, c),
		env.AtP(fx, i-1, j, c), env.AtP(fx, i+1, j, c),
		env.AtP(gy, i, j-1, c), env.AtP(gy, i, j+1, c))
}

// sweLaxFriedrichs is the combiner at one cell from the state's four
// in-plane neighbours and the neighbouring fluxes: the 4-neighbour average
// minus central flux differences.
func sweLaxFriedrichs(uim, uip, ujm, ujp, fim, fip, gjm, gjp float64) float64 {
	avg := 0.25 * (uim + uip + ujm + ujp)
	dfx := fip - fim
	dgy := gjp - gjm
	return avg - 0.5*sweDtDx*dfx - 0.5*sweDtDx*dgy
}

// sweSetProblem writes the standard dam-break-like problem: still water of
// unit depth with a centered Gaussian mound, zero momentum.
func sweSetProblem(u *grid.Field, domain grid.Size) {
	ci := float64(domain.NI) / 2
	cj := float64(domain.NJ) / 2
	sigma := math.Max(float64(min(domain.NI, domain.NJ))/8, 1)
	u.FillFunc(func(i, j, c int) float64 {
		if c != sweH {
			return 0
		}
		di := float64(i) + 0.5 - ci
		dj := float64(j) + 0.5 - cj
		return 1 + 0.25*math.Exp(-(di*di+dj*dj)/(2*sigma*sigma))
	})
}

// sweReference advances the packed state sequentially with the identical
// per-cell float sequence: flux passes into scratch, then the combiner.
func sweReference(st *State, steps int, bc stencil.Boundary, _ Options) error {
	u := st.Output()
	fx := grid.NewField("swe.ref.fx", st.Domain)
	gy := grid.NewField("swe.ref.gy", st.Domain)
	next := grid.NewField("swe.ref.next", st.Domain)
	env := &stencil.Env{Domain: st.Domain, BC: bc}
	whole := grid.WholeRegion(st.Domain)
	for t := 0; t < steps; t++ {
		stencil.ForEach(whole, func(i, j, c int) {
			fx.Set(i, j, c, sweFluxAt(u, i, j, c, sweHU))
		})
		stencil.ForEach(whole, func(i, j, c int) {
			gy.Set(i, j, c, sweFluxAt(u, i, j, c, sweHV))
		})
		stencil.ForEach(whole, func(i, j, c int) {
			next.Set(i, j, c, sweUpdate(env, u, fx, gy, i, j, c))
		})
		u.CopyFrom(next)
	}
	return nil
}
