package solver

import (
	"math"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// Lattice-Boltzmann D2Q9 (collide + stream), the many-field workload of the
// catalog. The executor advances one feedback field, so the nine
// distribution functions pack along the never-partitioned k axis (NK must be
// exactly 9, k = discrete-velocity index q — the component-axis convention
// of docs/SOLVERS.md). The collide stage reads all nine components of a
// column — declared as the (0,0,dk) offset superset, every read in-domain —
// and the stream stage shifts each component by its lattice velocity, which
// is where the per-step (i,j) halo of one cell comes from. Boundary
// semantics follow the executor's conditions: Periodic is the standard
// torus, Clamp replicates edge distributions (a deterministic, bit-testable
// closure rather than a physical wall).

// lbmNQ is the D2Q9 component count (the packed k-extent).
const lbmNQ = 9

// lbmTau is the fixed BGK relaxation time (0.6 keeps the collision
// non-degenerate: tau=1 would overwrite f with its equilibrium).
const lbmTau = 0.6

// D2Q9 lattice velocities and weights, in the conventional order: rest,
// axis-aligned, diagonals.
var (
	lbmCI = [lbmNQ]int{0, 1, 0, -1, 0, 1, -1, -1, 1}
	lbmCJ = [lbmNQ]int{0, 0, 1, 0, -1, 1, 1, -1, -1}
	lbmW  = [lbmNQ]float64{4.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36}
	// lbmCX/lbmCY are the velocities as floats (exact conversions), the
	// factors of the moment sums and the equilibrium: a table load instead
	// of an integer conversion per term.
	lbmCX, lbmCY = func() (cx, cy [lbmNQ]float64) {
		for q := range cx {
			cx[q], cy[q] = float64(lbmCI[q]), float64(lbmCJ[q])
		}
		return cx, cy
	}()
)

const lbmIn = "f"

func init() {
	columnOffsets := make([]stencil.Offset, 0, 2*lbmNQ-1)
	for dk := -(lbmNQ - 1); dk <= lbmNQ-1; dk++ {
		columnOffsets = append(columnOffsets, stencil.Offset{DK: dk})
	}
	var neighborOffsets []stencil.Offset
	for di := -1; di <= 1; di++ {
		for dj := -1; dj <= 1; dj++ {
			neighborOffsets = append(neighborOffsets, stencil.Offset{DI: di, DJ: dj})
		}
	}
	collSlow := func(env *stencil.Env, r grid.Region) {
		src, out := env.Field(lbmIn), env.Field("coll")
		stencil.ForEach(r, func(i, j, q int) {
			out.Set(i, j, q, lbmCollide(src, i, j, q))
		})
	}
	collFast := func(env *stencil.Env, r grid.Region) {
		src, out := env.Field(lbmIn).Data, env.Field("coll").Data
		b, di, cols := columnRows(env, r, lbmNQ)
		q0, q1 := r.K0, r.K1
		if q0 < 0 || q1 > lbmNQ {
			// columnRows has already panicked; restating the range lets
			// the compiler drop the bounds checks on o[q] and f[q].
			return
		}
		// Offset from a column's first component to the column base its
		// cells read, resolved under the env's border binding.
		col := q0 + env.Step(2, -q0)
		span := cols * lbmNQ
		for i := r.I0; i < r.I1; i, b = i+1, b+di {
			fs, outs := src[b+col:][:span], out[b:][:span]
			for len(fs) >= lbmNQ && len(outs) >= lbmNQ {
				f, o := (*[lbmNQ]float64)(fs), (*[lbmNQ]float64)(outs)
				// The moments once per column, then every component of r.
				rho, ux, uy := lbmMoments(f)
				for q := q0; q < q1; q++ {
					o[q] = lbmRelax(q, f[q], rho, ux, uy)
				}
				fs, outs = fs[lbmNQ:], outs[lbmNQ:]
			}
		}
	}
	streamSlow := func(env *stencil.Env, r grid.Region) {
		coll, out := env.Field("coll"), env.Field("fq")
		stencil.ForEach(r, func(i, j, q int) {
			out.Set(i, j, q, env.AtP(coll, i-lbmCI[q], j-lbmCJ[q], q))
		})
	}
	streamFast := func(env *stencil.Env, r grid.Region) {
		coll, out := env.Field("coll").Data, env.Field("fq").Data
		b0, di, cols := columnRows(env, r, lbmNQ)
		// A row's component-q cells sit at x = 0, lbmNQ, ... of
		// [b+q, b+q+n): rows of one length, walked by an unsigned index,
		// carry no bounds checks.
		n := (cols-1)*lbmNQ + 1
		for q := r.K0; q < r.K1; q++ {
			// Component q streams in from the neighbour one lattice
			// velocity upstream, resolved under the env's border binding.
			d := env.Step(0, -lbmCI[q]) + env.Step(1, -lbmCJ[q])
			for i, b := r.I0, b0+q; i < r.I1; i, b = i+1, b+di {
				row, src := out[b:][:n], coll[b+d:][:n]
				for x := uint(0); x < uint(len(row)); x += lbmNQ {
					row[x] = src[x]
				}
			}
		}
	}
	stages := []stencil.KernelStage{
		{
			Stage: stencil.Stage{
				Name:   "coll",
				Inputs: []stencil.Input{{From: lbmIn, Offsets: columnOffsets}},
				Flops:  60, // moment sums + equilibrium + BGK relaxation per component
			},
			Kernel: collSlow, Fast: collFast, Slow: collSlow,
		},
		{
			Stage: stencil.Stage{
				Name:   "fq",
				Inputs: []stencil.Input{{From: "coll", Offsets: neighborOffsets}},
				Flops:  1,
			},
			Kernel: streamSlow, Fast: streamFast, Slow: streamSlow,
		},
	}
	newProgram := func(Options) (*stencil.KernelProgram, error) {
		kp, err := stencil.BuildProgram("lbm-d2q9", []string{lbmIn}, "fq", stages)
		if err != nil {
			return nil, err
		}
		kp.Program.Feedback = lbmIn
		return kp, nil
	}
	Register(&Entry{
		Name:        "lbm",
		Description: "lattice-Boltzmann D2Q9 stream+collide (9 distributions packed along k)",
		CheckDomain: requireNK(lbmNQ, "the 9 D2Q9 distributions pack along the k axis"),
		NewProgram:  newProgram,
		NewState: func(domain grid.Size) (*State, error) {
			return newState(domain, lbmIn, lbmIn), nil
		},
		SetProblem: func(st *State) { lbmSetProblem(st.Output(), st.Domain) },
		Reference:  lbmReference,
	})
}

// lbmCollide returns the post-collision value of component q at (i,j) —
// the per-cell gather of the slow kernel. All reads are in-domain (the
// column is never cut by the partitioner), so no boundary resolution is
// involved.
func lbmCollide(f *grid.Field, i, j, q int) float64 {
	col := (*[lbmNQ]float64)(f.Data[f.Index(i, j, 0):])
	rho, ux, uy := lbmMoments(col)
	return lbmRelax(q, col[q], rho, ux, uy)
}

// lbmMoments returns the density and velocity of one packed column, summed
// in component order. With lbmRelax it is the only copy of the collision
// arithmetic: the fast kernel, the slow kernel and lbmReference all call
// both, so they perform the identical float sequence.
func lbmMoments(col *[lbmNQ]float64) (rho, ux, uy float64) {
	var jx, jy float64
	for r, v := range col {
		rho += v
		jx += lbmCX[r] * v
		jy += lbmCY[r] * v
	}
	return rho, jx / rho, jy / rho
}

// lbmRelax is the BGK relaxation of component value fq toward the D2Q9
// equilibrium of its column's moments.
func lbmRelax(q int, fq, rho, ux, uy float64) float64 {
	feq := lbmEquilibrium(q, rho, ux, uy)
	return fq + (feq-fq)/lbmTau
}

// lbmEquilibrium returns the equilibrium distribution for component q at
// density rho and velocity (ux, uy) — the collision target and the
// initial-condition fill.
func lbmEquilibrium(q int, rho, ux, uy float64) float64 {
	usq := ux*ux + uy*uy
	cu := lbmCX[q]*ux + lbmCY[q]*uy
	return lbmW[q] * rho * (1 + 3*cu + 4.5*cu*cu - 1.5*usq)
}

// lbmSetProblem initializes f to the equilibrium of a double shear flow:
// unit density with a smooth sinusoidal velocity perturbation (peak Mach
// 0.05, well inside the incompressible regime).
func lbmSetProblem(f *grid.Field, domain grid.Size) {
	ni, nj := float64(domain.NI), float64(domain.NJ)
	f.FillFunc(func(i, j, q int) float64 {
		ux := 0.05 * math.Sin(2*math.Pi*float64(j)/nj)
		uy := 0.05 * math.Sin(2*math.Pi*float64(i)/ni)
		return lbmEquilibrium(q, 1, ux, uy)
	})
}

// lbmReference advances the packed field sequentially: a full-domain collide
// pass into scratch, then a stream pass — independent of the compiled
// executor, with the identical per-cell float sequence.
func lbmReference(st *State, steps int, bc stencil.Boundary, _ Options) error {
	f := st.Output()
	coll := grid.NewField("lbm.ref.coll", st.Domain)
	next := grid.NewField("lbm.ref.next", st.Domain)
	env := &stencil.Env{Domain: st.Domain, BC: bc}
	whole := grid.WholeRegion(st.Domain)
	for t := 0; t < steps; t++ {
		for i := 0; i < st.Domain.NI; i++ {
			for j := 0; j < st.Domain.NJ; j++ {
				n := f.Index(i, j, 0)
				col := (*[lbmNQ]float64)(f.Data[n:])
				rho, ux, uy := lbmMoments(col)
				for q := range col {
					coll.Data[n+q] = lbmRelax(q, col[q], rho, ux, uy)
				}
			}
		}
		stencil.ForEach(whole, func(i, j, q int) {
			next.Set(i, j, q, env.AtP(coll, i-lbmCI[q], j-lbmCJ[q], q))
		})
		f.CopyFrom(next)
	}
	return nil
}
