package exec

import (
	"fmt"
	"strings"
	"sync"

	"islands/internal/decomp"
	"islands/internal/grid"
	"islands/internal/sched"
	"islands/internal/stencil"
)

// splitPart cuts an island part into one output sub-region per worker along
// j — the decomposition both the publish copies and the core-level
// sub-islands use.
func splitPart(part grid.Region, n int) []grid.Region {
	return decomp.SplitDim(part, 1, n)
}

// This file implements the compiled-schedule executor: at NewRunner time the
// full (island, block, stage, worker) -> region decomposition of one time
// step — including the interior/border split that split kernels would
// otherwise recompute on every invocation — is flattened into one work-item
// list per worker. The steady-state step loop then performs no region
// arithmetic, no closure construction and no allocations: every worker walks
// its precompiled items, and per-stage joins are reusable sense-reversing
// barriers (sched.Barrier) instead of a channel dispatch+join through
// sched.Team.Run. This is the schedule-once/execute-many discipline of
// time-skewed stencil frameworks, applied to the paper's three strategies.

type itemKind uint8

const (
	// kernelItem invokes a stage kernel over a precomputed region. Regions
	// of split-kernel stages are pre-cut into interior (fast path, flat
	// indexing) and border (slow path, boundary conditions) pieces.
	kernelItem itemKind = iota
	// copyItem copies a region between two fields: a whole-part publish
	// into the shared feedback grid (copy mode), or a halo-strip pull from
	// a neighbor environment's freshly computed buffer (swap+halo mode).
	copyItem
	// barrierItem waits at a phase barrier — the per-stage team join or
	// the end-of-compute global join.
	barrierItem
	// swapItem swaps the data buffers of two fields in place
	// (grid.SwapData) — the island-local feedback/output exchange between
	// the inner steps of a temporal block. Island-level schedules fuse it
	// into a single team-barrier crossing (every worker arrives, the last
	// arriver swaps before the release publishes it: Barrier.WaitDo);
	// core-level sub-islands swap their own private pair with no
	// synchronization (bar == nil).
	swapItem
)

// schedItem is one precompiled unit of work in a worker's step program.
type schedItem struct {
	kind itemKind
	// phase indexes Schedule.phases: the profiling phase this item is
	// accounted to. Kernel items carry their fused group's phase; barrier
	// items carry the phase they seal (the wait at a barrier measures the
	// imbalance of the work that precedes it).
	phase int32
	kern  stencil.Kernel
	env   *stencil.Env
	reg   grid.Region
	dst   *grid.Field
	src   *grid.Field
	// shift maps a copy item's region (dst coordinates) onto src: the two
	// fields may hold different windows of the domain (grid.CopyShifted).
	shift [3]int
	bar   *sched.Barrier
	// do is the precompiled serial section of a fused swap-barrier item
	// (kind == swapItem with bar != nil): the last arriver runs it inside
	// the crossing. Compiled once so the steady-state walk stays
	// allocation-free.
	do func()
}

// phaseInfo labels one profiling phase of a compiled schedule.
type phaseInfo struct {
	// label names the phase: the fused group's member stages joined with
	// "+" (matching perf.FusionTable rows; inner steps of a temporal block
	// before the final one carry an "@-d" suffix, d steps before the
	// global join), or a synthetic name for the non-compute phases
	// ("global-join", "halo-exchange", "publish", "inner-swap").
	label string
	// group is the fused-group index behind a compute phase, -1 for the
	// synthetic phases.
	group int
}

// Schedule is a compiled one-step execution program: for every worker of
// every team, the ordered work items of one time step. It is built once per
// Runner and reused for every step; the model backend shares the plan's
// decomposition helpers (plan.stageChunks) so both backends price and
// execute the same geometry.
type Schedule struct {
	// items[t][w] is the step program of worker w of team t. With temporal
	// blocking (ksteps > 1) one walk of items advances ksteps time steps —
	// a full k-block between global joins.
	items [][][]schedItem
	// remainder[t][w] is the trailing sub-block program when the step
	// count is not a multiple of ksteps (Steps mod ksteps inner steps,
	// reusing the tail of the same trapezoid geometry, the same barriers
	// and the same phase ids). Nil when no remainder is needed.
	remainder [][][]schedItem
	// ksteps is the temporal-blocking factor the schedule was compiled
	// with (1 = one step per walk, today's schedules); kstepReason records
	// why a requested Config.KSteps > 1 fell back to 1; remSteps is the
	// remainder program's inner-step count (0 when remainder is nil).
	ksteps      int
	kstepReason string
	remSteps    int
	// barriers lists every barrier in the schedule, for Abort on failure.
	// The remainder program shares them, so one poisoning aborts both.
	barriers []*sched.Barrier
	// mode records how the schedule publishes feedback between steps:
	// a buffer swap on the single shared environment (Original, Plus31D),
	// whole-part publish copies into the shared feedback grid, or the
	// island strategies' per-environment buffer swap plus halo-strip
	// exchange (see halo.go).
	mode FeedbackMode
	// haloStrips / haloBytes total the swap+halo exchange per step
	// (zero in the other modes).
	haloStrips int
	haloBytes  int64
	// fallbackReason records, in copy mode, why the halo-strip exchange
	// was not compiled (infeasible geometry or Config.DisableHaloExchange)
	// — the loud half of the fallback rule.
	fallbackReason string
	// windowedEnvs counts the core-islands environments allocated over
	// their windows (window.go); windowReason says why core islands kept
	// full-domain environments instead. envBytes totals the bytes the
	// environments own (stage outputs and private input copies).
	windowedEnvs int
	windowReason string
	envBytes     int64
	// wrapReason records why periodic wrap bands were skipped for some
	// dimension (stage halo wider than the domain); empty when the bands
	// compiled (or were not needed).
	wrapReason string
	// stages and groups record the program's stage count and the number of
	// fused phase groups the schedule compiles them into (equal when
	// fusion is disabled).
	stages, groups int
	// phases lists the profiling phases of the schedule in first-emission
	// order; schedItem.phase indexes this slice. Compute phases aggregate
	// one fused group across all blocks and teams, so profiled totals line
	// up with ScheduleStats.PhaseGroups.
	phases []phaseInfo

	failMu  sync.Mutex
	failed  bool
	failure any
}

// PhaseLabels returns the schedule's profiling phase labels in order: the
// fused groups (member stages joined with "+") followed by the synthetic
// phases of the island strategies ("global-join", then "halo-exchange" or
// "publish" depending on the feedback mode).
func (s *Schedule) PhaseLabels() []string {
	out := make([]string, len(s.phases))
	for i, p := range s.phases {
		out[i] = p.label
	}
	return out
}

// Feedback reports how the compiled schedule publishes the step output into
// the feedback input between steps.
func (s *Schedule) Feedback() FeedbackMode { return s.mode }

// SwapFeedback reports whether the compiled schedule publishes feedback by
// a single shared-environment buffer swap (true for Original and Plus31D).
func (s *Schedule) SwapFeedback() bool { return s.mode == FeedbackSwap }

// FallbackReason returns, for a copy-mode schedule of an island strategy,
// why the halo-strip exchange was not compiled ("" otherwise).
func (s *Schedule) FallbackReason() string { return s.fallbackReason }

// KSteps returns the temporal-blocking factor the schedule executes: the
// number of full time steps one walk of the compiled k-block advances
// between global joins (1 = no temporal blocking).
func (s *Schedule) KSteps() int { return s.ksteps }

// KStepFallbackReason returns why a requested Config.KSteps > 1 fell back to
// step-at-a-time execution ("" when temporal blocking was not requested or
// compiled as requested).
func (s *Schedule) KStepFallbackReason() string { return s.kstepReason }

// fail records the first worker failure and poisons every barrier so the
// remaining workers unwind instead of deadlocking at the next phase.
func (s *Schedule) fail(p any) {
	s.failMu.Lock()
	if s.failed {
		s.failMu.Unlock()
		return
	}
	s.failed = true
	s.failure = p
	s.failMu.Unlock()
	for _, b := range s.barriers {
		b.Abort()
	}
}

// firstFailure returns the first recorded worker panic value, or nil.
func (s *Schedule) firstFailure() any {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	return s.failure
}

// run executes one worker's step program. It performs no allocations.
func runItems(items []schedItem) {
	for i := range items {
		it := &items[i]
		switch it.kind {
		case kernelItem:
			it.kern(it.env, it.reg)
		case copyItem:
			grid.CopyShifted(it.dst, it.src, it.reg, it.shift[0], it.shift[1], it.shift[2])
		case barrierItem:
			it.bar.Wait()
		case swapItem:
			if it.bar != nil {
				it.bar.WaitDo(it.do)
			} else {
				grid.SwapData(it.dst, it.src)
			}
		}
	}
}

// scheduleCompiler accumulates per-worker item lists while walking a plan.
type scheduleCompiler struct {
	p     *plan
	prog  *stencil.KernelProgram
	teams []*sched.Team
	out   *grid.Field
	// exts[s] is stage s's combined input extent, the interior-split
	// boundary width (identical to what splitKernel uses at run time).
	exts []stencil.Extent
	// groups holds the executable form of the plan's fused groups; the
	// compiler emits one phase (one sweep, one barrier) per group instead
	// of one per stage.
	groups []stencil.GroupExec
	sch    *Schedule
	// binds caches border-bound environment clones: pieces with the same
	// pinned coordinates share one clone across stages and blocks.
	binds map[bindKey]*stencil.Env
	// curPhase is the profiling phase stamped onto emitted items; the
	// compile loops set it to a group's phase before emitting the group's
	// units, and leave it pointing at the just-finished phase when
	// emitting the barrier that seals it.
	curPhase int32
	// phaseByGroup maps a fused group and its inner-step distance d (from
	// the temporal block's final step; always 0 without temporal blocking)
	// to its phase id, so a group swept once per block and team still
	// aggregates into a single phase per inner step. Keying by d rather
	// than by inner-step index lets the remainder program — whose r inner
	// steps are the tail of the k-block's geometry — share the k-block's
	// phase ids.
	phaseByGroup map[groupKey]int32
	// phaseByLabel caches the synthetic phases ("global-join",
	// "halo-exchange", "publish", "inner-swap") so the remainder program
	// reuses the k-block's ids.
	phaseByLabel map[string]int32
	// tbars / gbar cache the per-team and global barriers so the remainder
	// program waits at the same objects as the k-block (one Abort poisons
	// both).
	tbars []*sched.Barrier
	gbar  *sched.Barrier
	// rem redirects emission into the schedule's remainder program.
	rem bool
	// feedback names the step input the inner-step swaps publish into.
	feedback string
	// halo is the swap+halo exchange geometry, nil when the island
	// strategies must publish by whole-part copies; haloReason says why.
	halo       *haloGeom
	haloReason string
}

// groupKey identifies a compute phase: a fused group at an inner-step
// distance from the temporal block's final step.
type groupKey struct{ gi, d int }

// bindKey identifies a border binding of an environment.
type bindKey struct {
	env    *stencil.Env
	pinned [3]bool
	pin    [3]int
}

func newScheduleCompiler(p *plan, prog *stencil.KernelProgram, teams []*sched.Team, out *grid.Field) *scheduleCompiler {
	c := &scheduleCompiler{p: p, prog: prog, teams: teams, out: out, sch: &Schedule{},
		binds:        make(map[bindKey]*stencil.Env),
		phaseByGroup: make(map[groupKey]int32),
		phaseByLabel: make(map[string]int32),
		tbars:        make([]*sched.Barrier, len(teams))}
	c.exts = make([]stencil.Extent, len(prog.Stages))
	for s := range prog.Stages {
		c.exts[s] = stencil.InputsExtent(prog.Stages[s].Inputs)
	}
	c.sch.items = make([][][]schedItem, len(teams))
	for t, team := range teams {
		c.sch.items[t] = make([][]schedItem, team.Size())
	}
	return c
}

// totalCores returns the worker count across all teams.
func (c *scheduleCompiler) totalCores() int {
	n := 0
	for _, t := range c.teams {
		n += t.Size()
	}
	return n
}

// addKernel appends stage s over region r to worker (t, w), pre-splitting
// split-kernel stages at plan time. The interior runs the fast path on the
// plain environment; the boundary shell is decomposed into pinned pieces
// (stencil.BorderPieces), each of which also runs the fast path — on an
// environment clone bound to the piece, whose resolved steps fold the
// boundary condition into the flat strides. Every cell thus reads exactly
// the elements the generic AtP path would, so results stay bit-identical to
// the combined kernel while the per-cell boundary checks disappear from the
// steady-state loop entirely.
func (c *scheduleCompiler) addKernel(t, w, s int, env *stencil.Env, r grid.Region) {
	if r.Empty() {
		return
	}
	fast, _, ok := c.prog.SplitPaths(s)
	if !ok {
		c.push(t, w, schedItem{kind: kernelItem, kern: c.prog.Kernels[s], env: env, reg: env.Local(r)})
		return
	}
	c.addSplit(t, w, fast, c.exts[s], env, r)
}

// addSplit appends a fast kernel over r (domain coordinates) to worker (t,
// w), cut into the interior and the pinned border pieces of the extent ext.
// The pieces are derived in domain coordinates — the boundary is the
// domain's — and each item is emitted in its environment's coordinates.
func (c *scheduleCompiler) addSplit(t, w int, fast stencil.Kernel, ext stencil.Extent, env *stencil.Env, r grid.Region) {
	interior, pieces := stencil.BorderPieces(r, ext, c.p.domain)
	if !interior.Empty() {
		c.push(t, w, schedItem{kind: kernelItem, kern: fast, env: env, reg: env.Local(interior)})
	}
	for _, pc := range pieces {
		c.push(t, w, schedItem{kind: kernelItem, kern: fast, env: c.bindEnv(env, pc), reg: env.Local(pc.Region)})
	}
}

// phaseUnit is one work parcel within a fused phase: either the group's
// fused fast sweep over the members' common region, or a single member
// stage over a remainder or fallback region. All units of a phase are
// mutually independent (the planner guarantees no member reads another), so
// they execute in any order between the phase's barriers.
type phaseUnit struct {
	fused bool
	idx   int // group index when fused, stage index otherwise
	reg   grid.Region
}

// groupUnits decomposes one fused group's work into phase units, given the
// per-stage spans (the same regions the unfused schedule would sweep).
// When the group has at least two split-path members, their spans'
// intersection runs the fused kernel — every member in one sweep, sharing
// the input streams — and each member's leftover strips (the wavefront
// trapezoids differ per stage) run that member's own fast path. Every
// member thus computes exactly the cells of its unfused span, keeping the
// schedule bit-identical to per-stage execution.
func (c *scheduleCompiler) groupUnits(gi int, span func(s int) grid.Region) []phaseUnit {
	ge := &c.groups[gi]
	var units []phaseUnit
	add := func(u phaseUnit) {
		if !u.reg.Empty() {
			units = append(units, u)
		}
	}
	perMember := func() {
		for _, s := range ge.FastMembers {
			add(phaseUnit{idx: s, reg: span(s)})
		}
	}
	if ge.Fast != nil && len(ge.FastMembers) > 1 {
		common := span(ge.FastMembers[0])
		for _, s := range ge.FastMembers[1:] {
			common = common.Intersect(span(s))
		}
		if !common.Empty() {
			add(phaseUnit{fused: true, idx: gi, reg: common})
			for _, s := range ge.FastMembers {
				for _, rem := range stencil.Subtract(span(s), common) {
					add(phaseUnit{idx: s, reg: rem})
				}
			}
		} else {
			perMember()
		}
	} else {
		perMember()
	}
	for _, s := range ge.Generic {
		add(phaseUnit{idx: s, reg: span(s)})
	}
	return units
}

// addUnit appends one phase unit over region r to worker (t, w). Fused
// units mirror addKernel's interior/border treatment with the group's
// merged extent: the interior runs the group kernel on the plain
// environment, pinned border pieces run it on border-bound clones, so every
// member stays bit-identical to its per-stage execution.
func (c *scheduleCompiler) addUnit(t, w int, u phaseUnit, env *stencil.Env, r grid.Region) {
	if !u.fused {
		c.addKernel(t, w, u.idx, env, r)
		return
	}
	if r.Empty() {
		return
	}
	c.addSplit(t, w, c.groups[u.idx].Fast, c.p.fuse.Groups[u.idx].Ext, env, r)
}

// bindEnv returns env bound to piece pc, reusing clones across pieces with
// identical pinned coordinates (common across stages and blocks).
func (c *scheduleCompiler) bindEnv(env *stencil.Env, pc stencil.BorderPiece) *stencil.Env {
	k := bindKey{env: env, pinned: pc.Pinned, pin: pc.Pin}
	if b, ok := c.binds[k]; ok {
		return b
	}
	b := env.BindPiece(pc)
	c.binds[k] = b
	return b
}

// newCopy builds a copy item of region reg (domain coordinates) from src,
// which holds window sw of the domain, into dst, which holds window dw.
func newCopy(dst *grid.Field, dw grid.Region, src *grid.Field, sw grid.Region, reg grid.Region) schedItem {
	return schedItem{kind: copyItem, dst: dst, src: src,
		reg:   grid.Box(reg.I0-dw.I0, reg.I1-dw.I0, reg.J0-dw.J0, reg.J1-dw.J0, reg.K0-dw.K0, reg.K1-dw.K0),
		shift: [3]int{dw.I0 - sw.I0, dw.J0 - sw.J0, dw.K0 - sw.K0}}
}

func (c *scheduleCompiler) push(t, w int, it schedItem) {
	it.phase = c.curPhase
	if c.rem {
		c.sch.remainder[t][w] = append(c.sch.remainder[t][w], it)
		return
	}
	c.sch.items[t][w] = append(c.sch.items[t][w], it)
}

// beginRemainder switches emission to the schedule's remainder program.
func (c *scheduleCompiler) beginRemainder() {
	c.rem = true
	c.sch.remainder = make([][][]schedItem, len(c.teams))
	for t, team := range c.teams {
		c.sch.remainder[t] = make([][]schedItem, team.Size())
	}
}

// newPhase registers a profiling phase and returns its id.
func (c *scheduleCompiler) newPhase(label string, group int) int32 {
	id := int32(len(c.sch.phases))
	c.sch.phases = append(c.sch.phases, phaseInfo{label: label, group: group})
	return id
}

// syntheticPhase returns (creating on first use) the phase of a synthetic
// (non-compute) label, so the remainder program shares the k-block's ids.
func (c *scheduleCompiler) syntheticPhase(label string) int32 {
	if id, ok := c.phaseByLabel[label]; ok {
		return id
	}
	id := c.newPhase(label, -1)
	c.phaseByLabel[label] = id
	return id
}

// groupPhase returns (creating on first use) the phase of fused group gi at
// inner-step distance d, labeled with the member stage names joined by "+" —
// the same labels perf.FusionTable and DescribeSchedule use — plus an "@-d"
// suffix for the temporal-block inner steps before the final one (d steps
// before the global join), so imbalance tables stay meaningful per inner
// step.
func (c *scheduleCompiler) groupPhase(gi, d int) int32 {
	key := groupKey{gi, d}
	if id, ok := c.phaseByGroup[key]; ok {
		return id
	}
	var names []string
	for _, s := range c.p.fuse.Groups[gi].Stages {
		names = append(names, c.prog.Stages[s].Name)
	}
	label := strings.Join(names, "+")
	if d > 0 {
		label = fmt.Sprintf("%s@-%d", label, d)
	}
	id := c.newPhase(label, gi)
	c.phaseByGroup[key] = id
	return id
}

// newBarrier creates and registers a barrier of n participants.
func (c *scheduleCompiler) newBarrier(n int) *sched.Barrier {
	b := sched.NewBarrier(n)
	c.sch.barriers = append(c.sch.barriers, b)
	return b
}

// teamBarrier returns (creating on first use) team t's phase barrier; the
// remainder program waits at the same object as the k-block.
func (c *scheduleCompiler) teamBarrier(t int) *sched.Barrier {
	if c.tbars[t] == nil {
		c.tbars[t] = c.newBarrier(c.teams[t].Size())
	}
	return c.tbars[t]
}

// globalBarrier returns (creating on first use) the machine-wide barrier.
func (c *scheduleCompiler) globalBarrier() *sched.Barrier {
	if c.gbar == nil {
		c.gbar = c.newBarrier(c.totalCores())
	}
	return c.gbar
}

// addGlobalBarrier appends one wait at bar to every worker of every team.
func (c *scheduleCompiler) addGlobalBarrier(bar *sched.Barrier) {
	for t, team := range c.teams {
		for w := 0; w < team.Size(); w++ {
			c.push(t, w, schedItem{kind: barrierItem, bar: bar})
		}
	}
}

// addTeamBarrier appends one wait at bar to every worker of team t.
func (c *scheduleCompiler) addTeamBarrier(t int, bar *sched.Barrier) {
	for w := 0; w < c.teams[t].Size(); w++ {
		c.push(t, w, schedItem{kind: barrierItem, bar: bar})
	}
}

// appendWrapUnits appends the periodic wrap-band sweeps (wrap.go) of a fused
// group's member stages for block b: first-block boxes at b == 0, last-block
// boxes at b == nblocks-1, and the block's own j/k-image boxes. Band units
// are per-stage (never fused) and disjoint from every same-phase write, so
// they ride in the group's phase like any other unit.
func appendWrapUnits(units []phaseUnit, bands []*wrapBands, members []int, b, nblocks int) []phaseUnit {
	if bands == nil {
		return units
	}
	for _, s := range members {
		w := bands[s]
		if w == nil {
			continue
		}
		if b == 0 {
			for _, r := range w.first {
				units = append(units, phaseUnit{idx: s, reg: r})
			}
		}
		if b == nblocks-1 {
			for _, r := range w.last {
				units = append(units, phaseUnit{idx: s, reg: r})
			}
		}
		for _, r := range w.perBlock[b] {
			units = append(units, phaseUnit{idx: s, reg: r})
		}
	}
	return units
}

// compileSchedule builds the compiled one-step program for the runner's
// strategy. envs/workerEnvs mirror Runner's environment layout. Work items
// and barriers are emitted per fused group — one interior/border split, one
// phase barrier, one set of halo regions per group — so stage fusion cuts
// MPDATA's per-block phases 17 -> 7 (back to 17 with Config.DisableFusion).
func compileSchedule(p *plan, prog *stencil.KernelProgram, teams []*sched.Team,
	envs []*stencil.Env, workerEnvs [][]*stencil.Env, out *grid.Field,
	feedback string, halo *haloGeom, haloReason string) (*Schedule, error) {
	c := newScheduleCompiler(p, prog, teams, out)
	c.halo, c.haloReason = halo, haloReason
	c.feedback = feedback
	groups, err := p.fuse.CompileGroups(prog)
	if err != nil {
		return nil, err
	}
	c.groups = groups
	c.sch.stages = len(prog.Stages)
	c.sch.groups = len(groups)
	c.sch.ksteps = p.ksteps
	c.sch.kstepReason = p.kstepReason
	compile := func(kk int) {
		switch {
		case p.cfg.Strategy == Original:
			c.compileOriginal(envs[0])
		case p.cfg.Strategy == Plus31D:
			c.compilePlus31D(envs[0])
		case p.cfg.CoreIslands:
			c.compileCoreIslands(workerEnvs, kk)
		default:
			c.compileIslands(envs, kk)
		}
	}
	compile(p.ksteps)
	c.sch.wrapReason = p.wrapReason
	if rem := p.cfg.Steps % p.ksteps; p.ksteps > 1 && rem > 0 {
		// The trailing sub-block runs the last rem inner steps of the same
		// trapezoid geometry (distances rem-1 .. 0), waiting at the same
		// barriers and accounted to the same phase ids as the k-block.
		c.beginRemainder()
		compile(rem)
		c.sch.remSteps = rem
	}
	return c.sch, nil
}

// blockSpan returns the span accessor of block b of island i.
func (c *scheduleCompiler) blockSpan(island, b int) func(s int) grid.Region {
	return c.blockSpanAt(0, island, b)
}

// blockSpanAt returns the span accessor of block b of island i for the inner
// step at distance d from a temporal block's final step.
func (c *scheduleCompiler) blockSpanAt(d, island, b int) func(s int) grid.Region {
	return func(s int) grid.Region { return c.p.spansK[d][island][s][b] }
}

// compileOriginal: every fused group sweeps the whole domain chunked along i
// over all cores of the machine; consecutive groups meet at a machine-wide
// barrier. Feedback is a buffer swap performed by the driver after the step
// join (replacing the full-grid copyFeedback sweep).
func (c *scheduleCompiler) compileOriginal(env *stencil.Env) {
	cores := c.totalCores()
	global := c.globalBarrier()
	first := true
	for gi := range c.p.fuse.Groups {
		units := c.groupUnits(gi, c.blockSpan(0, 0))
		if len(units) == 0 {
			continue
		}
		if !first {
			// curPhase still names the previous group: the wait here
			// measures that group's straggler time.
			c.addGlobalBarrier(global)
		}
		first = false
		c.curPhase = c.groupPhase(gi, 0)
		for _, u := range units {
			chunks := decomp.SplitDim(u.reg, 0, cores)
			for t, team := range c.teams {
				for w := 0; w < team.Size(); w++ {
					c.addUnit(t, w, u, env, chunks[team.Cores[w]])
				}
			}
		}
	}
	c.sch.mode = FeedbackSwap
}

// compilePlus31D: cache blocks in sequence; within a block every fused group
// is chunked along j over all cores with a machine-wide barrier per group.
func (c *scheduleCompiler) compilePlus31D(env *stencil.Env) {
	cores := c.totalCores()
	global := c.globalBarrier()
	nblocks := len(c.p.blocks[0])
	bands := c.p.stageWrapBands(c.p.parts[0],
		func(s, b int) grid.Region { return c.p.spans[0][s][b] }, nblocks)
	first := true
	for b := range c.p.blocks[0] {
		for gi := range c.p.fuse.Groups {
			units := c.groupUnits(gi, c.blockSpan(0, b))
			units = appendWrapUnits(units, bands, c.p.fuse.Groups[gi].Stages, b, nblocks)
			if len(units) == 0 {
				continue
			}
			if !first {
				c.addGlobalBarrier(global)
			}
			first = false
			c.curPhase = c.groupPhase(gi, 0)
			for _, u := range units {
				chunks := decomp.SplitDim(u.reg, 1, cores)
				for t, team := range c.teams {
					for w := 0; w < team.Size(); w++ {
						c.addUnit(t, w, u, env, chunks[team.Cores[w]])
					}
				}
			}
		}
	}
	c.sch.mode = FeedbackSwap
}

// compileIslands: each team walks its island's blocks and fused groups with
// per-group team barriers; a single global barrier separates compute from
// the publish copies (islands read each other's feedback halos, so no
// island may publish before all have finished computing). With temporal
// blocking (kk > 1) each team runs kk full step bodies back to back — the
// inner step at distance d from the block's final step sweeping the
// d-widened trapezoids of plan.spansK[d] — separated only by island-local
// barrier crossings around a private feedback/output buffer swap; the global
// join, the halo-strip exchange and the driver swap then happen once per
// block instead of once per step.
func (c *scheduleCompiler) compileIslands(envs []*stencil.Env, kk int) {
	for t, team := range c.teams {
		n := team.Size()
		tbar := c.teamBarrier(t)
		nblocks := len(c.p.blocks[t])
		first := true
		for j := 0; j < kk; j++ {
			d := kk - 1 - j
			bands := c.p.stageWrapBands(c.p.targetAt(d, c.p.parts[t]),
				func(s, b int) grid.Region { return c.p.spansK[d][t][s][b] }, nblocks)
			if j > 0 {
				// Between inner steps: a single fused crossing — every
				// worker arrives at the team barrier (the wait measures
				// the previous group's imbalance), the last arriver swaps
				// the island's private feedback/output buffers, and the
				// release publishes the swap into the next step's sweeps.
				c.curPhase = c.syntheticPhase("inner-swap")
				fb, out := envs[t].Field(c.feedback), envs[t].Field(c.prog.Output)
				do := func() { grid.SwapData(fb, out) }
				for w := 0; w < n; w++ {
					c.push(t, w, schedItem{kind: swapItem, bar: tbar,
						dst: fb, src: out, do: do})
				}
				first = true
			}
			for b := range c.p.blocks[t] {
				for gi := range c.p.fuse.Groups {
					units := c.groupUnits(gi, c.blockSpanAt(d, t, b))
					units = appendWrapUnits(units, bands, c.p.fuse.Groups[gi].Stages, b, nblocks)
					if len(units) == 0 {
						continue
					}
					if !first {
						c.addTeamBarrier(t, tbar)
					}
					first = false
					c.curPhase = c.groupPhase(gi, d)
					for _, u := range units {
						chunks := decomp.SplitDim(u.reg, 1, n)
						for w := 0; w < n; w++ {
							c.addUnit(t, w, u, envs[t], chunks[w])
						}
					}
				}
			}
		}
	}
	// The end-of-compute machine-wide join gets its own phase: its wait is
	// the inter-island imbalance (the paper's phase-5 synchronization),
	// not any single group's.
	c.curPhase = c.syntheticPhase("global-join")
	c.addGlobalBarrier(c.globalBarrier())
	if c.halo != nil {
		// swap+halo: team t's workers pull only the neighbor-facing
		// strips of island t's step halo from the owners' freshly
		// computed output buffers into island t's own output field
		// (disjoint from every kernel write and every other strip); the
		// driver then swaps each island's feedback/output buffers.
		c.compileHaloExchange(func(e int) *stencil.Env { return envs[e] },
			func(e int) (int, int, bool) { return e, c.teams[e].Size(), true })
		return
	}
	c.sch.mode = FeedbackCopy
	c.sch.fallbackReason = c.haloReason
	c.curPhase = c.syntheticPhase("publish")
	for t, team := range c.teams {
		n := team.Size()
		src := envs[t].Field(c.prog.Output)
		chunks := splitPart(c.p.parts[t], n)
		for w := 0; w < n; w++ {
			if !chunks[w].Empty() {
				c.push(t, w, newCopy(c.out, grid.WholeRegion(c.p.domain), src, envs[t].Window, chunks[w]))
			}
		}
	}
}

// compileHaloExchange emits the swap+halo feedback phase: for every private
// environment (indexed in the halo geometry's flattened order), the strips
// it pulls from the owners' output fields. envOf maps a flattened index to
// its environment; teamOf maps it to (team, team size, split): team-level
// environments split each strip across the team's workers along its longest
// dimension (the same parallelism the publish copies had), worker-level
// environments (core islands) run their own strips whole.
func (c *scheduleCompiler) compileHaloExchange(envOf func(int) *stencil.Env, teamOf func(int) (int, int, bool)) {
	c.sch.mode = FeedbackSwapHalo
	c.sch.haloStrips = c.halo.stripCount
	c.sch.haloBytes = c.halo.stripBytes
	c.curPhase = c.syntheticPhase("halo-exchange")
	for e := range c.halo.owned {
		denv := envOf(e)
		dst := denv.Field(c.prog.Output)
		t, n, split := teamOf(e)
		for _, s := range c.halo.strips[e] {
			senv := envOf(s.owner)
			src := senv.Field(c.prog.Output)
			if split {
				chunks := decomp.SplitDim(s.reg, decomp.LongestDim(s.reg), n)
				for w := 0; w < n; w++ {
					if !chunks[w].Empty() {
						c.push(t, w, newCopy(dst, denv.Window, src, senv.Window, chunks[w]))
					}
				}
			} else {
				c.push(t, c.workerOf(e, t), newCopy(dst, denv.Window, src, senv.Window, s.reg))
			}
		}
	}
}

// workerOf converts a flattened environment index to its worker index
// within team t (core-islands flattening: teams in order, workers within).
func (c *scheduleCompiler) workerOf(e, t int) int {
	for i := 0; i < t; i++ {
		e -= c.teams[i].Size()
	}
	return e
}

// compileCoreIslands: every worker is its own sub-island sweeping all blocks
// and fused groups over its private j-trapezoids with no synchronization
// until the global end-of-compute barrier, then publishes its exact
// sub-part. Fusion brings no barrier savings here (there are none to cut);
// the fused sweeps still share their member stages' input streams. With
// temporal blocking (kk > 1) each sub-island runs kk step bodies back to
// back over its d-widened trapezoids, swapping its own private
// feedback/output pair between inner steps with no synchronization at all —
// the block stays barrier-free until the global join.
func (c *scheduleCompiler) compileCoreIslands(workerEnvs [][]*stencil.Env, kk int) {
	for t, team := range c.teams {
		n := team.Size()
		subs := splitPart(c.p.parts[t], n)
		nblocks := len(c.p.blocks[t])
		for w := 0; w < n; w++ {
			env := workerEnvs[t][w]
			for j := 0; j < kk; j++ {
				d := kk - 1 - j
				bands := c.p.stageWrapBands(c.p.targetAt(d, subs[w]),
					func(s, b int) grid.Region { return c.p.workerRegionAt(d, t, s, b, subs[w]) }, nblocks)
				if j > 0 {
					c.curPhase = c.syntheticPhase("inner-swap")
					c.push(t, w, schedItem{kind: swapItem,
						dst: env.Field(c.feedback), src: env.Field(c.prog.Output)})
				}
				for b := range c.p.blocks[t] {
					for gi := range c.p.fuse.Groups {
						span := func(s int) grid.Region { return c.p.workerRegionAt(d, t, s, b, subs[w]) }
						c.curPhase = c.groupPhase(gi, d)
						units := c.groupUnits(gi, span)
						units = appendWrapUnits(units, bands, c.p.fuse.Groups[gi].Stages, b, nblocks)
						for _, u := range units {
							c.addUnit(t, w, u, env, u.reg)
						}
					}
				}
			}
		}
	}
	c.curPhase = c.syntheticPhase("global-join")
	c.addGlobalBarrier(c.globalBarrier())
	if c.halo != nil {
		// swap+halo at worker granularity: each sub-island pulls its own
		// j/i halo strips — from teammates' sub-parts and from the
		// neighbor islands' workers alike — then the driver swaps every
		// worker's private feedback/output buffers.
		flatTeam := make([]int, 0, c.totalCores())
		for t, team := range c.teams {
			for w := 0; w < team.Size(); w++ {
				flatTeam = append(flatTeam, t)
			}
		}
		c.compileHaloExchange(
			func(e int) *stencil.Env { return workerEnvs[flatTeam[e]][c.workerOf(e, flatTeam[e])] },
			func(e int) (int, int, bool) { return flatTeam[e], 0, false })
		return
	}
	c.sch.mode = FeedbackCopy
	c.sch.fallbackReason = c.haloReason
	c.curPhase = c.syntheticPhase("publish")
	for t, team := range c.teams {
		n := team.Size()
		subs := splitPart(c.p.parts[t], n)
		for w := 0; w < n; w++ {
			if env := workerEnvs[t][w]; !subs[w].Empty() {
				c.push(t, w, newCopy(c.out, grid.WholeRegion(c.p.domain), env.Field(c.prog.Output), env.Window, subs[w]))
			}
		}
	}
}

// ScheduleStats summarizes a compiled schedule for inspection. Item counts
// cover one walk of the main program — one time step without temporal
// blocking, one k-block of KSteps steps with it.
type ScheduleStats struct {
	// KernelItems / CopyItems / SwapItems / BarrierWaits count items summed
	// over all workers; Barriers counts distinct barrier objects.
	// SwapItems counts swaps performed, not items emitted: a fused
	// swap-barrier crossing (every team worker arrives, the last arriver
	// swaps) is one swap per team, an unsynchronized core-level swap is
	// one per worker.
	KernelItems  int
	CopyItems    int
	SwapItems    int
	BarrierWaits int
	Barriers     int
	// MaxItemsPerWorker is the longest per-worker step program.
	MaxItemsPerWorker int
	// Stages is the program's stage count; PhaseGroups the number of
	// fused phase groups the schedule executes them as. Fusion cuts the
	// per-block phase barriers from Stages to PhaseGroups (equal when
	// fusion is disabled).
	Stages      int
	PhaseGroups int
	// KSteps is the temporal-blocking factor one walk of the schedule
	// advances (1 = step-at-a-time); KStepFallbackReason says why a
	// requested Config.KSteps > 1 fell back to 1. RemainderSteps counts the
	// trailing sub-block's inner steps when the configured step count is
	// not a multiple of KSteps.
	KSteps              int
	KStepFallbackReason string
	RemainderSteps      int
	// Feedback is the schedule's feedback-publication mode; SwapFeedback
	// mirrors Schedule.SwapFeedback (the shared-environment swap).
	Feedback     FeedbackMode
	SwapFeedback bool
	// HaloStrips / HaloBytes total the swap+halo exchange per global join
	// (zero in the other modes); FallbackReason says why a copy-mode island
	// schedule did not compile the halo-strip exchange.
	HaloStrips     int
	HaloBytes      int64
	FallbackReason string
	// WindowedEnvs counts the core-islands environments allocated over
	// their windows (part plus read halo) instead of the whole domain;
	// WindowFallbackReason says why a core-islands schedule kept
	// full-domain environments. EnvBytes totals the bytes the runner's
	// environments own: stage outputs and private input copies.
	WindowedEnvs         int
	WindowFallbackReason string
	EnvBytes             int64
}

// Stats summarizes the schedule.
func (s *Schedule) Stats() ScheduleStats {
	st := ScheduleStats{Barriers: len(s.barriers),
		Feedback: s.mode, SwapFeedback: s.mode == FeedbackSwap,
		HaloStrips: s.haloStrips, HaloBytes: s.haloBytes, FallbackReason: s.fallbackReason,
		WindowedEnvs: s.windowedEnvs, WindowFallbackReason: s.windowReason, EnvBytes: s.envBytes,
		Stages: s.stages, PhaseGroups: s.groups,
		KSteps: s.ksteps, KStepFallbackReason: s.kstepReason}
	for _, team := range s.items {
		for w, items := range team {
			if len(items) > st.MaxItemsPerWorker {
				st.MaxItemsPerWorker = len(items)
			}
			for i := range items {
				switch items[i].kind {
				case kernelItem:
					st.KernelItems++
				case copyItem:
					st.CopyItems++
				case swapItem:
					// A fused swap-barrier appears in every worker's
					// program but performs one swap per crossing; count
					// it once per team. Unsynchronized core-level swaps
					// (bar == nil) are one swap per worker.
					if items[i].bar == nil || w == 0 {
						st.SwapItems++
					}
				case barrierItem:
					st.BarrierWaits++
				}
			}
		}
	}
	st.RemainderSteps = s.remSteps
	return st
}

func (st ScheduleStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule: %d stages in %d phase groups, %d kernel items, %d copy items, %d waits at %d barriers, max %d items/worker, feedback=%s",
		st.Stages, st.PhaseGroups, st.KernelItems, st.CopyItems, st.BarrierWaits, st.Barriers, st.MaxItemsPerWorker, st.Feedback)
	if st.KSteps > 1 {
		fmt.Fprintf(&b, ", ksteps=%d (%d inner swaps", st.KSteps, st.SwapItems)
		if st.RemainderSteps > 0 {
			fmt.Fprintf(&b, ", %d-step remainder", st.RemainderSteps)
		}
		b.WriteString(")")
	}
	if st.Feedback == FeedbackSwapHalo {
		fmt.Fprintf(&b, " (%d strips, %d B/step)", st.HaloStrips, st.HaloBytes)
	}
	if st.FallbackReason != "" {
		fmt.Fprintf(&b, " (halo fallback: %s)", st.FallbackReason)
	}
	if st.KStepFallbackReason != "" {
		fmt.Fprintf(&b, " (ksteps fallback: %s)", st.KStepFallbackReason)
	}
	fmt.Fprintf(&b, ", env bytes=%d", st.EnvBytes)
	if st.WindowedEnvs > 0 {
		fmt.Fprintf(&b, " (%d windowed envs)", st.WindowedEnvs)
	}
	if st.WindowFallbackReason != "" {
		fmt.Fprintf(&b, " (window fallback: %s)", st.WindowFallbackReason)
	}
	return b.String()
}
