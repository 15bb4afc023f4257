package solver

import (
	"fmt"
	"math"
	"testing"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// optionVariants lists every Options value an entry's spec accepts: the
// MPDATA order and limiter grid for the entry that consumes them, the zero
// value for the rest.
func optionVariants(e *Entry) []Options {
	if !e.MPDATAOptions {
		return []Options{{}}
	}
	var out []Options
	for iord := 0; iord <= 4; iord++ {
		for _, unlimited := range []bool{false, true} {
			out = append(out, Options{IORD: iord, Unlimited: unlimited})
		}
	}
	return out
}

// TestCatalogStagesHaveFastPaths: every stage of every catalog program, in
// every option variant, carries a fast/slow split, and fusion leaves no
// member on the generic per-cell path — a new solver cannot quietly fall
// back to per-cell Env.AtP execution.
func TestCatalogStagesHaveFastPaths(t *testing.T) {
	for _, name := range Names() {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range optionVariants(e) {
			prog, err := e.NewProgram(opt)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, opt, err)
			}
			for s := range prog.Stages {
				if _, _, ok := prog.SplitPaths(s); !ok {
					t.Errorf("%s %+v: stage %q has no fast/slow split", name, opt, prog.Stages[s].Name)
				}
			}
			fp, err := stencil.PlanFusion(&prog.Program)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, opt, err)
			}
			groups, err := fp.CompileGroups(prog)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, opt, err)
			}
			for gi, g := range groups {
				if len(g.Generic) != 0 {
					t.Errorf("%s %+v: fused group %d runs stages %v on the generic path", name, opt, gi, g.Generic)
				}
			}
		}
	}
}

// smallDomain returns the smallest-but-one shape the entry accepts around
// 7x6x5: every stage then has an interior and border pieces of every kind.
func smallDomain(t *testing.T, e *Entry) grid.Size {
	t.Helper()
	for _, nk := range []int{5, 1, 2, 3, 4, 6, 7, 8, 9} {
		d := grid.Sz(7, 6, nk)
		if e.CheckDomain == nil || e.CheckDomain(d) == nil {
			return d
		}
	}
	t.Fatalf("%s: no k extent in 1..9 passes CheckDomain", e.Name)
	return grid.Size{}
}

var bcNames = map[stencil.Boundary]string{stencil.Clamp: "clamp", stencil.Periodic: "periodic"}

// resolve maps a possibly out-of-domain coordinate to the cell the
// boundary condition reads there (the rule of Env.AtP).
func resolve(c, n int, bc stencil.Boundary) int {
	if bc == stencil.Periodic {
		return stencil.Wrap(c, n)
	}
	return stencil.ClampIdx(c, n)
}

// TestFastKernelsRespectDeclaredOffsets extends the NaN-poisoning check of
// the declared offsets (internal/mpdata) to the fast row kernels of every
// catalog stage, under both boundaries. Each fast kernel runs on the
// interior and on every stencil.BorderPieces piece of a small domain — the
// regions the schedule compiler gives it, pieces on an env bound with
// Env.BindPiece. Every producer cell the stage's declared offsets do not
// reach from the region (resolved through the boundary condition) is
// poisoned, and the region's output must equal the slow kernel's bit for
// bit. The poisons are NaN, 0 and 1, so a stray read also shows in
// life's boolean rule, which maps NaN to "alive". Cells of the output
// outside the region must keep their sentinel: a fast kernel writes exactly
// its region.
func TestFastKernelsRespectDeclaredOffsets(t *testing.T) {
	for _, name := range Names() {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			domain := smallDomain(t, e)
			for _, bc := range []stencil.Boundary{stencil.Clamp, stencil.Periodic} {
				checkFastKernels(t, e, domain, bc)
			}
		})
	}
}

func checkFastKernels(t *testing.T, e *Entry, domain grid.Size, bc stencil.Boundary) {
	t.Helper()
	prog, err := e.NewProgram(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A non-trivial state: the standard problem advanced two steps.
	st, err := e.NewProblemState(domain)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reference(st, 2, bc, Options{}); err != nil {
		t.Fatal(err)
	}
	// Clean values of every field from the slow kernels.
	clean, err := stencil.NewEnv(&prog.Program, domain, st.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	clean.BC = bc
	whole := grid.WholeRegion(domain)
	for s := range prog.Stages {
		_, slow, ok := prog.SplitPaths(s)
		if !ok {
			t.Fatalf("stage %q has no split form", prog.Stages[s].Name)
		}
		slow(clean, whole)
	}
	size := [3]int{domain.NI, domain.NJ, domain.NK}
	for s := range prog.Stages {
		stage := &prog.Stages[s]
		fast, _, _ := prog.SplitPaths(s)
		interior, pieces := stencil.BorderPieces(whole, stencil.InputsExtent(stage.Inputs), domain)
		targets := pieces
		if !interior.Empty() {
			targets = append([]stencil.BorderPiece{{Region: interior}}, pieces...)
		}
		for _, pc := range targets {
			// allowed[name] marks the producer cells the declared offsets
			// reach from the region.
			allowed := map[string][]bool{}
			for _, in := range stage.Inputs {
				mask := make([]bool, domain.Cells())
				stencil.ForEach(pc.Region, func(i, j, k int) {
					for _, o := range in.Offsets {
						c := [3]int{i + o.DI, j + o.DJ, k + o.DK}
						for d := range c {
							c[d] = resolve(c[d], size[d], bc)
						}
						mask[(c[0]*domain.NJ+c[1])*domain.NK+c[2]] = true
					}
				})
				allowed[in.From] = mask
			}
			for _, poison := range []float64{math.NaN(), 0, 1} {
				inputs := make(map[string]*grid.Field, len(prog.StepInputs))
				for _, in := range prog.StepInputs {
					inputs[in] = poisoned(clean.Field(in), allowed[in], poison)
				}
				env, err := stencil.NewEnv(&prog.Program, domain, inputs)
				if err != nil {
					t.Fatal(err)
				}
				env.BC = bc
				for p := 0; p < s; p++ {
					producer := prog.Stages[p].Name
					env.Field(producer).CopyFrom(poisoned(clean.Field(producer), allowed[producer], poison))
				}
				out := env.Field(stage.Name)
				const sentinel = -12345.5
				out.Fill(sentinel)
				run := env
				if pc.Pinned != [3]bool{} {
					run = env.BindPiece(pc)
				}
				fast(run, pc.Region)
				want := clean.Field(stage.Name)
				where := fmt.Sprintf("%s %s stage %q region %v pinned %v poison %v",
					e.Name, bcNames[bc], stage.Name, pc.Region, pc.Pinned, poison)
				stencil.ForEach(whole, func(i, j, k int) {
					got := out.At(i, j, k)
					if pc.Region.Contains(i, j, k) {
						if math.Float64bits(got) != math.Float64bits(want.At(i, j, k)) {
							t.Fatalf("%s: (%d,%d,%d) = %v, slow kernel %v — the fast kernel reads outside the declared offsets or differs from the slow path",
								where, i, j, k, got, want.At(i, j, k))
						}
					} else if got != sentinel {
						t.Fatalf("%s: the fast kernel wrote (%d,%d,%d) outside its region", where, i, j, k)
					}
				})
			}
		}
	}
}

// poisoned returns a copy of f with every cell outside mask set to poison
// (a nil mask poisons the whole field: the stage does not read it).
func poisoned(f *grid.Field, mask []bool, poison float64) *grid.Field {
	c := f.Clone()
	for n := range c.Data {
		if mask == nil || !mask[n] {
			c.Data[n] = poison
		}
	}
	return c
}

// TestFastKernelsDoNotAllocate pins the zero-allocation invariant of the
// compiled backend at the kernel layer, where it is deterministic: every
// fast kernel of every catalog stage, run over the interior and the pinned
// border pieces of a small domain, allocates nothing.
func TestFastKernelsDoNotAllocate(t *testing.T) {
	for _, name := range Names() {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		domain := smallDomain(t, e)
		prog, err := e.NewProgram(Options{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := e.NewProblemState(domain)
		if err != nil {
			t.Fatal(err)
		}
		env, err := stencil.NewEnv(&prog.Program, domain, st.Inputs)
		if err != nil {
			t.Fatal(err)
		}
		env.BC = stencil.Clamp
		whole := grid.WholeRegion(domain)
		for s := range prog.Stages {
			fast, _, _ := prog.SplitPaths(s)
			interior, pieces := stencil.BorderPieces(whole, stencil.InputsExtent(prog.Stages[s].Inputs), domain)
			bound := make([]*stencil.Env, len(pieces))
			for p, pc := range pieces {
				bound[p] = env.BindPiece(pc)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if !interior.Empty() {
					fast(env, interior)
				}
				for p, pc := range pieces {
					fast(bound[p], pc.Region)
				}
			})
			if allocs != 0 {
				t.Errorf("%s stage %q: %v allocations per sweep, want 0", name, prog.Stages[s].Name, allocs)
			}
		}
	}
}
