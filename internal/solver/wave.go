package solver

import (
	"math"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// 2D wave equation under leapfrog time integration — the two-buffer
// feedback workload. Leapfrog needs both u^{n} and u^{n-1}; the executor
// swaps exactly one field per step, so the two time levels pack along k
// (NK must be exactly 2: k=0 holds u^{n-1}, k=1 holds u^{n}) and one
// program application rotates both at once: the output's k=0 plane copies
// the old u^{n} and its k=1 plane carries u^{n+1}. A single feedback swap
// is then the whole time-level rotation.

const (
	wavePrev = 0 // k plane of u^{n-1}
	waveCur  = 1 // k plane of u^{n}
	waveNC   = 2
)

// waveC2 is the squared Courant number c·dt/dx of the leapfrog update
// (stability needs <= 1/2 in 2D).
const waveC2 = 0.25

const waveIn = "u"

func init() {
	offsets := []stencil.Offset{
		{}, {DK: -1}, {DK: 1},
		{DI: -1}, {DI: 1}, {DJ: -1}, {DJ: 1},
	}
	slow := func(env *stencil.Env, r grid.Region) {
		u, out := env.Field(waveIn), env.Field("w")
		stencil.ForEach(r, func(i, j, k int) {
			out.Set(i, j, k, waveUpdate(env, u, i, j, k))
		})
	}
	fast := func(env *stencil.Env, r grid.Region) {
		u, out := env.Field(waveIn).Data, env.Field("w").Data
		b0, di, cols := columnRows(env, r, waveNC)
		siN, siP := env.Step(0, -1), env.Step(0, 1)
		sjN, sjP := env.Step(1, -1), env.Step(1, 1)
		for k := r.K0; k < r.K1; k++ {
			// The cell's own column, read through the env's border
			// binding. A row's level-k cells sit at x = 0, waveNC, ... of
			// [b+k, b+k+n): rows of one length, walked by an unsigned
			// index, carry no bounds checks.
			cur, prev := env.Step(2, waveCur-k), env.Step(2, wavePrev-k)
			n := (cols-1)*waveNC + 1
			for i, b := r.I0, b0+k; i < r.I1; i, b = i+1, b+di {
				row, c := out[b:][:n], u[b+cur:][:n]
				if k == wavePrev {
					for x := uint(0); x < uint(len(row)); x += waveNC {
						row[x] = c[x]
					}
					continue
				}
				p := u[b+prev:][:n]
				im, ip := u[b+cur+siN:][:n], u[b+cur+siP:][:n]
				jm, jp := u[b+cur+sjN:][:n], u[b+cur+sjP:][:n]
				for x := uint(0); x < uint(len(row)); x += waveNC {
					row[x] = waveLeapfrog(c[x], p[x], im[x], ip[x], jm[x], jp[x])
				}
			}
		}
	}
	stages := []stencil.KernelStage{
		{
			Stage: stencil.Stage{
				Name:   "w",
				Inputs: []stencil.Input{{From: waveIn, Offsets: offsets}},
				Flops:  8,
			},
			Kernel: slow, Fast: fast, Slow: slow,
		},
	}
	newProgram := func(Options) (*stencil.KernelProgram, error) {
		kp, err := stencil.BuildProgram("wave-leapfrog", []string{waveIn}, "w", stages)
		if err != nil {
			return nil, err
		}
		kp.Program.Feedback = waveIn
		return kp, nil
	}
	Register(&Entry{
		Name:        "wave",
		Description: "2D wave equation, leapfrog (time levels u^n, u^n-1 packed along k)",
		CheckDomain: requireNK(waveNC, "the leapfrog time levels pack along the k axis"),
		NewProgram:  newProgram,
		NewState: func(domain grid.Size) (*State, error) {
			return newState(domain, waveIn, waveIn), nil
		},
		SetProblem: func(st *State) { waveSetProblem(st.Output(), st.Domain) },
		Reference:  waveReference,
	})
}

// waveUpdate computes the packed output at one cell through
// boundary-resolving reads — the gather of the slow kernel and
// waveReference: the k=0 plane becomes the old current level, the k=1
// plane the leapfrog step.
func waveUpdate(env *stencil.Env, u *grid.Field, i, j, k int) float64 {
	if k == wavePrev {
		return u.At(i, j, waveCur)
	}
	return waveLeapfrog(u.At(i, j, waveCur), u.At(i, j, wavePrev),
		env.AtP(u, i-1, j, waveCur), env.AtP(u, i+1, j, waveCur),
		env.AtP(u, i, j-1, waveCur), env.AtP(u, i, j+1, waveCur))
}

// waveLeapfrog is the leapfrog step 2u − u_prev + c²∇²u with the in-plane
// 5-point Laplacian — the only copy of the update arithmetic, shared by
// the fast kernel, the slow kernel and waveReference.
func waveLeapfrog(c, prev, im, ip, jm, jp float64) float64 {
	lap := im + ip + jm + jp - 4*c
	return 2*c - prev + waveC2*lap
}

// waveSetProblem writes a centered Gaussian displacement at rest (both time
// levels equal, so the initial velocity is zero and the pulse splits into
// outgoing rings).
func waveSetProblem(u *grid.Field, domain grid.Size) {
	ci := float64(domain.NI) / 2
	cj := float64(domain.NJ) / 2
	sigma := math.Max(float64(min(domain.NI, domain.NJ))/8, 1)
	u.FillFunc(func(i, j, k int) float64 {
		di := float64(i) + 0.5 - ci
		dj := float64(j) + 0.5 - cj
		return math.Exp(-(di*di + dj*dj) / (2 * sigma * sigma))
	})
}

// waveReference advances the packed field sequentially with the identical
// per-cell float sequence.
func waveReference(st *State, steps int, bc stencil.Boundary, _ Options) error {
	u := st.Output()
	next := grid.NewField("wave.ref.next", st.Domain)
	env := &stencil.Env{Domain: st.Domain, BC: bc}
	whole := grid.WholeRegion(st.Domain)
	for t := 0; t < steps; t++ {
		stencil.ForEach(whole, func(i, j, k int) {
			next.Set(i, j, k, waveUpdate(env, u, i, j, k))
		})
		u.CopyFrom(next)
	}
	return nil
}
