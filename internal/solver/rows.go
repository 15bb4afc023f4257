package solver

import (
	"fmt"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// Loop helpers of the catalog's fast row kernels. Every fast kernel takes
// its read displacements from Env.Step/OffsetStride, so it runs unchanged on
// the interior, on pinned border pieces (Env.BindPiece) and on windowed
// environments; these helpers only decide how the cells of a region are cut
// into flat runs.

// forEachSpan visits region r of an environment of size d as contiguous
// flat spans [base, base+n). When r covers the whole k extent, the j rows
// of an i plane are adjacent in memory and form one span; otherwise every
// (i, j) row is its own span. Only kernels that read every cell of r at the
// same flat displacements — no k-dependent offsets — may use it.
func forEachSpan(d grid.Size, r grid.Region, fn func(base, n int)) {
	if r.K0 == 0 && r.K1 == d.NK {
		n := (r.J1 - r.J0) * d.NK
		for i := r.I0; i < r.I1; i++ {
			fn((i*d.NJ+r.J0)*d.NK, n)
		}
		return
	}
	stencil.ForEachRow(d, r, func(_, _, base int) { fn(base, r.K1-r.K0) })
}

// columnRows prepares a fast kernel's walk over region r of a packed-k
// environment (k extent exactly nc, the component axis of docs/SOLVERS.md)
// as i rows of whole columns. It returns the flat index of column
// (r.I0, r.J0)'s first component, the flat distance from one i row to the
// next and the number of columns in a row. The packed solvers' column reads
// cover the whole k extent, so the executor runs their fast kernels on
// k-pinned pieces, one component per region, and a kernel reads component
// c' of a component-c cell's own column Env.Step(2, c'-c) away.
func columnRows(env *stencil.Env, r grid.Region, nc int) (b0, di, cols int) {
	d := env.Domain
	if d.NK != nc || r.K0 < 0 || r.K1 > nc {
		panic(fmt.Sprintf("solver: region %v of a %v env is not inside a packed %d-component column", r, d, nc))
	}
	return (r.I0*d.NJ + r.J0) * nc, d.NJ * nc, r.J1 - r.J0
}
