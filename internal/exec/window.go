package exec

import (
	"islands/internal/grid"
	"islands/internal/stencil"
)

// This file sizes the windowed environments of core-level sub-islands. A
// sub-island in swap+halo mode touches only its own part plus the trapezoid
// halo its k-block reads, so its environment holds every field — the step
// inputs' private copies as well as the stage outputs — over that window
// instead of the whole domain, in local coordinates (stencil.NewWindowEnv).
// The schedule compiler translates every item region, border-piece pin and
// halo strip into each environment's coordinates.

// coreWindows returns the window of every core-islands environment, in the
// halo geometry's flattened order (teams in order, workers within), or nil
// and the reason the environments must stay full-domain. A window is the
// bounding box of every cell its environment's schedule touches: each
// stage span of every inner step grown by the stage's input extent (fused
// sweeps read within their members' extents), plus the feedback boxes the
// halo exchange and ReloadFeedback fill — which include the owned part and
// the k-step widened feedback halo. Workers with no share of the domain
// get a one-cell window.
func coreWindows(p *plan, prog *stencil.KernelProgram, halo *haloGeom, haloReason string) ([]grid.Region, string) {
	switch {
	case halo == nil:
		return nil, "copy-mode feedback publishes whole parts from full-domain environments (" + haloReason + ")"
	case p.cfg.Boundary == stencil.Periodic:
		return nil, "periodic boundary: wrapped reads resolve across the whole domain"
	}
	var windows []grid.Region
	for t, part := range p.parts {
		subs := splitPart(part, p.cfg.Machine.Nodes[t].Cores)
		for _, sub := range subs {
			e := len(windows)
			var box grid.Region
			grow := func(r grid.Region) {
				switch {
				case r.Empty():
				case box.Empty():
					box = r
				default:
					box = grid.Box(min(box.I0, r.I0), max(box.I1, r.I1),
						min(box.J0, r.J0), max(box.J1, r.J1),
						min(box.K0, r.K0), max(box.K1, r.K1))
				}
			}
			for _, r := range halo.boxes[e] {
				grow(r)
			}
			for d := 0; d < p.ksteps; d++ {
				for s := range prog.Stages {
					ext := stencil.InputsExtent(prog.Stages[s].Inputs)
					for b := range p.blocks[t] {
						if r := p.workerRegionAt(d, t, s, b, sub); !r.Empty() {
							grow(ext.Apply(r).Clamp(p.domain))
						}
					}
				}
			}
			if box.Empty() {
				box = grid.Box(0, 1, 0, 1, 0, 1)
			}
			windows = append(windows, box)
		}
	}
	return windows, ""
}
