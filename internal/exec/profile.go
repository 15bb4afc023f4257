package exec

import (
	"fmt"
	"io"
	"time"

	"islands/internal/grid"
)

// This file implements the runtime profiler of the compiled-schedule
// executor: per-worker, per-phase wall-clock accounting of where a time step
// goes — kernel/copy compute versus barrier waiting, with the barrier wait
// split into its spin and park components (sched.Barrier.WaitProfiled).
// Profiling is off by default and the disabled executor path is untouched:
// the steady-state step stays allocation-free and clock-free (guarded by
// TestRunProfilerDisabledAllocFree and BenchmarkComputeIslands).

// Profile is the aggregated runtime profile of the steps a Runner executed
// since EnableProfile: per-phase totals summed over all workers and steps,
// and per-island (team) totals with the intra-team imbalance.
type Profile struct {
	// Steps is the number of profiled time steps.
	Steps int
	// Wall is the driver-side wall time of the profiled steps (the
	// dispatch-to-join span, including feedback publication).
	Wall time.Duration
	// Phases holds one entry per schedule phase, in execution order:
	// every fused group once (aggregated over blocks and teams — the
	// count of Group >= 0 entries equals ScheduleStats.PhaseGroups), then
	// the island strategies' "global-join" and "halo-exchange" (or
	// "publish", in the copy-fallback mode) phases.
	Phases []PhaseProfile
	// Islands holds one entry per team, with the per-worker imbalance.
	Islands []IslandProfile
	// Workers is the total worker count across teams.
	Workers int
}

// PhaseProfile is the profile of one schedule phase summed over all workers
// and steps.
type PhaseProfile struct {
	// Label names the phase: the fused group's member stages joined with
	// "+", or "global-join"/"halo-exchange"/"publish" for the synthetic
	// phases.
	Label string
	// Group is the fused-group index, or -1 for the synthetic phases.
	Group int
	// Compute is time spent in kernel and copy items of this phase.
	Compute time.Duration
	// Spin and Park split the waits at the barrier sealing this phase:
	// cooperative-yield spinning versus parked on the condition variable.
	Spin, Park time.Duration
}

// Barrier returns the phase's total barrier-wait time (spin + park).
func (p PhaseProfile) Barrier() time.Duration { return p.Spin + p.Park }

// IslandProfile is the profile of one island (work team) summed over its
// workers and all steps.
type IslandProfile struct {
	// Team is the team (island) index.
	Team int
	// Workers is the team's worker count.
	Workers int
	// Compute, Spin, Park are summed over the team's workers.
	Compute, Spin, Park time.Duration
	// MinWorker and MaxWorker are the extremes of per-worker compute time
	// within the team — the intra-island load imbalance the barrier waits
	// absorb.
	MinWorker, MaxWorker time.Duration
}

// ImbalancePct is the island's relative compute imbalance:
// (max-min)/max * 100 over the team's workers (0 for an empty profile).
func (ip IslandProfile) ImbalancePct() float64 {
	if ip.MaxWorker <= 0 {
		return 0
	}
	return 100 * float64(ip.MaxWorker-ip.MinWorker) / float64(ip.MaxWorker)
}

// ProfileSummary condenses a runtime profile into the plain numbers the
// autotuner's objective consumes: mean per-step wall time, the phase totals
// normalized per step, the barrier share, and the worst per-island compute
// imbalance. All durations are in seconds.
type ProfileSummary struct {
	// Steps is the number of profiled steps the summary averages over.
	Steps int
	// StepSeconds is the mean driver-side wall time of one step.
	StepSeconds float64
	// ComputeSeconds, SpinSeconds and ParkSeconds are the per-step phase
	// totals summed over all workers (worker-seconds per step).
	ComputeSeconds, SpinSeconds, ParkSeconds float64
	// BarrierSharePct is (spin+park) / (compute+spin+park) * 100 — how much
	// of the workers' time goes to waiting rather than computing.
	BarrierSharePct float64
	// MaxImbalancePct is the worst per-island relative compute imbalance
	// (IslandProfile.ImbalancePct) — the tuner's tie-breaker.
	MaxImbalancePct float64
}

// Summary condenses the profile into per-step scalars (zero value for an
// empty profile).
func (p *Profile) Summary() ProfileSummary {
	var s ProfileSummary
	if p == nil || p.Steps == 0 {
		return s
	}
	s.Steps = p.Steps
	inv := 1 / float64(p.Steps)
	s.StepSeconds = p.Wall.Seconds() * inv
	for _, ph := range p.Phases {
		s.ComputeSeconds += ph.Compute.Seconds() * inv
		s.SpinSeconds += ph.Spin.Seconds() * inv
		s.ParkSeconds += ph.Park.Seconds() * inv
	}
	if busy := s.ComputeSeconds + s.SpinSeconds + s.ParkSeconds; busy > 0 {
		s.BarrierSharePct = 100 * (s.SpinSeconds + s.ParkSeconds) / busy
	}
	for _, ip := range p.Islands {
		if imb := ip.ImbalancePct(); imb > s.MaxImbalancePct {
			s.MaxImbalancePct = imb
		}
	}
	return s
}

// traceEvent is one recorded schedule item execution (trace mode only).
type traceEvent struct {
	phase int32
	kind  itemKind
	start time.Duration // offset from the profile epoch
	dur   time.Duration
	spin  time.Duration // barrier items: the spin share of dur
}

// profiler is the runtime state behind an enabled profile.
type profiler struct {
	trace bool
	epoch time.Time
	steps int
	wall  time.Duration
	// workers[t][w] is worker w of team t's accumulation state. Each
	// worker writes only its own entry during a step, so the hot path
	// needs no synchronization; the driver reads between steps.
	workers [][]*workerProf
}

// workerProf accumulates one worker's per-phase times (indexed by phase id)
// and, in trace mode, its raw item events.
type workerProf struct {
	compute []time.Duration
	spin    []time.Duration
	park    []time.Duration
	events  []traceEvent
}

// EnableProfile turns on per-phase runtime profiling for subsequent Run
// steps. With trace=true every executed schedule item is additionally
// recorded as a timeline event for WriteTrace (Chrome trace-event JSON).
// Profiling restarts from zero: a previous profile is discarded. It must not
// be called concurrently with Run. Profiling costs two clock reads per
// schedule item; the disabled path (the default) is unchanged and remains
// allocation-free.
func (r *Runner) EnableProfile(trace bool) {
	p := &profiler{trace: trace, epoch: time.Now()}
	nPhases := len(r.schedule.phases)
	p.workers = make([][]*workerProf, len(r.sch.Teams))
	for t, team := range r.sch.Teams {
		p.workers[t] = make([]*workerProf, team.Size())
		for w := range p.workers[t] {
			p.workers[t][w] = &workerProf{
				compute: make([]time.Duration, nPhases),
				spin:    make([]time.Duration, nPhases),
				park:    make([]time.Duration, nPhases),
			}
		}
	}
	r.prof = p
}

// DisableProfile turns profiling off again; the accumulated profile is
// discarded. Must not be called concurrently with Run.
func (r *Runner) DisableProfile() { r.prof = nil }

// Profile returns the aggregated profile of the steps executed since
// EnableProfile, or nil when profiling is not enabled.
func (r *Runner) Profile() *Profile {
	p := r.prof
	if p == nil {
		return nil
	}
	out := &Profile{Steps: p.steps, Wall: p.wall}
	for i, ph := range r.schedule.phases {
		pp := PhaseProfile{Label: ph.label, Group: ph.group}
		for _, team := range p.workers {
			for _, wp := range team {
				pp.Compute += wp.compute[i]
				pp.Spin += wp.spin[i]
				pp.Park += wp.park[i]
			}
		}
		out.Phases = append(out.Phases, pp)
	}
	for t, team := range p.workers {
		ip := IslandProfile{Team: t, Workers: len(team)}
		for w, wp := range team {
			var busy time.Duration
			for i := range wp.compute {
				busy += wp.compute[i]
				ip.Spin += wp.spin[i]
				ip.Park += wp.park[i]
			}
			ip.Compute += busy
			if w == 0 || busy < ip.MinWorker {
				ip.MinWorker = busy
			}
			if busy > ip.MaxWorker {
				ip.MaxWorker = busy
			}
		}
		out.Islands = append(out.Islands, ip)
		out.Workers += len(team)
	}
	return out
}

// runItemsProfiled is the profiled twin of runItems: it executes one
// worker's step program while accounting every item's wall time to its
// phase. Barrier waits use the instrumented path so the spin/park split is
// preserved. In trace mode every item is also recorded as a timeline event.
func runItemsProfiled(items []schedItem, wp *workerProf, trace bool, epoch time.Time) {
	now := time.Now()
	for i := range items {
		it := &items[i]
		var spin, park time.Duration
		switch it.kind {
		case kernelItem:
			it.kern(it.env, it.reg)
		case copyItem:
			grid.CopyShifted(it.dst, it.src, it.reg, it.shift[0], it.shift[1], it.shift[2])
		case barrierItem:
			spin, park = it.bar.WaitProfiled()
		case swapItem:
			if it.bar != nil {
				spin, park = it.bar.WaitDoProfiled(it.do)
			} else {
				grid.SwapData(it.dst, it.src)
			}
		}
		end := time.Now()
		if it.kind == barrierItem || (it.kind == swapItem && it.bar != nil) {
			// Account the measured wait; the residual (arrival
			// bookkeeping, wakeup latency) is charged to the same
			// phase's spin bucket so phase totals still tile the
			// worker's timeline.
			wp.spin[it.phase] += end.Sub(now) - park
			wp.park[it.phase] += park
		} else {
			wp.compute[it.phase] += end.Sub(now)
		}
		if trace {
			wp.events = append(wp.events, traceEvent{
				phase: it.phase, kind: it.kind,
				start: now.Sub(epoch), dur: end.Sub(now), spin: spin,
			})
		}
		now = end
	}
}

// WriteTrace writes the events recorded in trace mode (EnableProfile(true))
// as Chrome trace-event JSON: one complete ("X") event per executed schedule
// item, with one process per team and one thread per global core, loadable
// in chrome://tracing and Perfetto. Returns an error if profiling is off or
// trace mode was not enabled.
func (r *Runner) WriteTrace(w io.Writer) error {
	p := r.prof
	if p == nil {
		return fmt.Errorf("exec: WriteTrace requires EnableProfile")
	}
	if !p.trace {
		return fmt.Errorf("exec: WriteTrace requires EnableProfile(true)")
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	if _, err := fmt.Fprint(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(format string, args ...any) error {
		if !first {
			if _, err := fmt.Fprint(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	for t, team := range r.sch.Teams {
		if err := emit(`{"name":"process_name","ph":"M","pid":%d,"args":{"name":"team %d (node %d)"}}`,
			t, t, team.Node); err != nil {
			return err
		}
		for w := 0; w < team.Size(); w++ {
			if err := emit(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"worker %d (core %d)"}}`,
				t, team.Cores[w], w, team.Cores[w]); err != nil {
				return err
			}
		}
	}
	for t, team := range p.workers {
		for w, wp := range team {
			tid := r.sch.Teams[t].Cores[w]
			for _, ev := range wp.events {
				name := r.schedule.phases[ev.phase].label
				cat := "kernel"
				switch ev.kind {
				case copyItem:
					cat = "copy"
				case barrierItem:
					cat = "barrier"
				case swapItem:
					cat = "swap"
				}
				if ev.kind == barrierItem {
					if err := emit(`{"name":"wait:%s","cat":"%s","ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"spin_us":%.3f}}`,
						name, cat, us(ev.start), us(ev.dur), t, tid, us(ev.spin)); err != nil {
						return err
					}
				} else {
					if err := emit(`{"name":"%s","cat":"%s","ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d}`,
						name, cat, us(ev.start), us(ev.dur), t, tid); err != nil {
						return err
					}
				}
			}
		}
	}
	_, err := fmt.Fprint(w, "\n]}\n")
	return err
}
