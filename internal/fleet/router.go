// Package fleet is the sharded serving layer: a router/coordinator that
// consistent-hashes jobs by their engine CacheKey across N mpdata-serve
// replicas. Cache affinity lifts the paper's shared-cache locality argument
// from cores to replicas: all jobs with one compiled-schedule key land on the
// same home replica, so a warm engine exists *somewhere* in the fleet rather
// than being recompiled everywhere. Saturated homes overflow to ring
// successors (work stealing), fleet-wide saturation surfaces as one honest
// aggregate 429, and replica faults — a replica dying or drain-aborting
// mid-job — reroute the affected jobs to surviving replicas and re-run them,
// so killing a replica under load loses nothing.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"islands/internal/serve"
	serveclient "islands/internal/serve/client"
)

// ErrNoReplicas rejects submissions when no healthy replica is reachable
// (HTTP 503 at the API).
var ErrNoReplicas = errors.New("fleet: no healthy replica reachable")

// ErrDraining rejects submissions while the router drains (HTTP 503).
var ErrDraining = errors.New("fleet: router is draining, not admitting jobs")

// BusyError is the aggregate backpressure rejection: every healthy replica
// refused the job with a 429. RetryAfter is the honest fleet-wide hint — the
// minimum of the replica hints, since the fleet can accept again as soon as
// the soonest replica can.
type BusyError struct {
	Replicas   int
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("fleet: all %d healthy replicas saturated, retry after %s", e.Replicas, e.RetryAfter)
}

// Options configures a Router. The zero value of every field selects the
// documented default.
type Options struct {
	// Replicas are the mpdata-serve base URLs ("http://host:port").
	Replicas []string
	// VNodes is the ring's virtual-node count per replica (0 = 64).
	VNodes int
	// HealthInterval is the membership probe period (0 = 250ms).
	HealthInterval time.Duration
	// FailThreshold is the consecutive probe/transport failures that take
	// a replica out of the placement ring (0 = 2).
	FailThreshold int
	// MaxReroutes bounds the replica-fault re-placements per job (0 = 3);
	// past it the job is reported failed — terminal, never lost.
	MaxReroutes int
	// Backoff is the watcher's retry policy (zero value = serveclient
	// defaults): the waits before re-subscribing to a dropped events
	// stream, and the admission retries while re-placing rerouted jobs
	// into a saturated fleet.
	Backoff serveclient.BackoffPolicy
	// Logf receives operational log lines (nil = discard).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.VNodes <= 0 {
		o.VNodes = 64
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = 250 * time.Millisecond
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 2
	}
	if o.MaxReroutes <= 0 {
		o.MaxReroutes = 3
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Router is the fleet coordinator: health-checked membership, the consistent
// hash ring, the routed-job registry and the HTTP API. Create with NewRouter,
// serve Handler(), stop with Drain or Close.
type Router struct {
	opts    Options
	metrics *Metrics

	mu      sync.Mutex
	members map[string]*member
	ring    *ring // healthy members only
	jobs    map[string]*Job
	nextID  uint64
	// retired bounds the terminal jobs kept in jobs (serve.RetainedJobs,
	// the replicas' bound).
	retired serve.TerminalLog

	inflight atomic.Int64
	draining atomic.Bool

	jobsWG   sync.WaitGroup
	healthWG sync.WaitGroup
	stop     chan struct{}

	closeOnce sync.Once
}

// NewRouter builds the coordinator and starts the membership health loop.
func NewRouter(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	if len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: at least one replica URL is required")
	}
	r := &Router{
		opts:    opts,
		metrics: &Metrics{},
		members: make(map[string]*member, len(opts.Replicas)),
		jobs:    make(map[string]*Job),
		stop:    make(chan struct{}),
	}
	for _, name := range opts.Replicas {
		name = strings.TrimRight(strings.TrimSpace(name), "/")
		if name == "" {
			continue
		}
		if _, dup := r.members[name]; dup {
			return nil, fmt.Errorf("fleet: duplicate replica %s", name)
		}
		r.members[name] = newMember(name)
	}
	if len(r.members) == 0 {
		return nil, fmt.Errorf("fleet: at least one replica URL is required")
	}
	r.rebuildRing()
	r.healthWG.Add(1)
	go r.healthLoop()
	return r, nil
}

// Metrics exposes the router's counters (tests assert on them directly).
func (r *Router) Metrics() *Metrics { return r.metrics }

// memberList snapshots the membership.
func (r *Router) memberList() []*member {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*member, 0, len(r.members))
	for _, m := range r.members {
		out = append(out, m)
	}
	return out
}

// rebuildRing recomputes the placement ring over the healthy members.
func (r *Router) rebuildRing() {
	r.mu.Lock()
	defer r.mu.Unlock()
	var healthy []string
	for name, m := range r.members {
		if m.Healthy() {
			healthy = append(healthy, name)
		}
	}
	sort.Strings(healthy)
	r.ring = newRing(healthy, r.opts.VNodes)
}

// healthyCount returns (healthy, total) members.
func (r *Router) healthyCount() (int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, m := range r.members {
		if m.Healthy() {
			n++
		}
	}
	return n, len(r.members)
}

// placementOrder resolves the key's ring successors to live members: the
// home replica first, then the work-stealing fallbacks.
func (r *Router) placementOrder(key uint64) []*member {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := r.ring.successors(key, len(r.members))
	out := make([]*member, 0, len(names))
	for _, n := range names {
		if m := r.members[n]; m != nil {
			out = append(out, m)
		}
	}
	return out
}

// affinityKey hashes a normalized spec's engine CacheKey onto the ring. Jobs
// with identical compiled-schedule identities (grid, strategy, topology,
// blocking, ablation flags — everything serve.CacheKey holds) share a hash
// point and therefore a home replica, which is what keeps the fleet-wide
// engine-cache hit rate at the single-server level.
func affinityKey(ns serve.NormSpec) uint64 {
	return hashString(fmt.Sprintf("%v", ns.Key()))
}

// Submit validates a spec, admits it as a routed job and synchronously
// places it on a replica: the home replica by cache affinity, or a ring
// successor when the home queue is saturated (work stealing). It returns
// ErrDraining while the router drains, *BusyError when every healthy replica
// rejected the job with backpressure, ErrNoReplicas when none was reachable,
// or a validation error for a bad spec. On success a watcher goroutine
// follows the job to its terminal state, rerouting on replica faults.
func (r *Router) Submit(ctx context.Context, spec serve.Spec) (*Job, error) {
	ns, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	if r.draining.Load() {
		return nil, ErrDraining
	}

	key := affinityKey(ns)
	r.mu.Lock()
	r.nextID++
	id := fmt.Sprintf("f%08d", r.nextID)
	j := newFleetJob(id, spec, key)
	j.home = r.ring.owner(key)
	r.jobs[id] = j
	r.mu.Unlock()

	m, st, err := r.placeOnce(ctx, j)
	if err != nil {
		r.mu.Lock()
		delete(r.jobs, id)
		r.mu.Unlock()
		if errors.As(err, new(*BusyError)) {
			r.metrics.Rejected.Add(1)
		}
		return nil, err
	}
	j.place(m.name, st.ID)
	r.metrics.Submitted.Add(1)
	r.inflight.Add(1)
	r.jobsWG.Add(1)
	go r.watch(j)
	return j, nil
}

// placeOnce walks the job's affinity order and submits to the first replica
// that accepts. Every-replica-429 aggregates into *BusyError carrying the
// minimum Retry-After hint; unreachable/draining replicas are skipped (and
// struck toward their fail threshold); no candidates at all is ErrNoReplicas.
func (r *Router) placeOnce(ctx context.Context, j *Job) (*member, serve.JobStatus, error) {
	order := r.placementOrder(j.key)
	if len(order) == 0 {
		return nil, serve.JobStatus{}, ErrNoReplicas
	}
	var (
		busy    int
		minHint time.Duration = -1
	)
	for i, m := range order {
		st, err := m.client.Submit(ctx, j.Spec)
		if err == nil {
			r.metrics.Placements.Add(1)
			if i > 0 {
				r.metrics.Steals.Add(1)
			}
			return m, st, nil
		}
		if ctx.Err() != nil {
			return nil, serve.JobStatus{}, ctx.Err()
		}
		var apiErr *serveclient.APIError
		switch {
		case errors.As(err, &apiErr) && apiErr.StatusCode == 429:
			busy++
			if minHint < 0 || apiErr.RetryAfter < minHint {
				minHint = apiErr.RetryAfter
			}
		case errors.As(err, &apiErr) && apiErr.StatusCode == 503:
			// Draining replica: it will never accept; the health loop will
			// drop it from the ring shortly.
			continue
		case errors.As(err, &apiErr):
			// Permanent rejection (the router validated the spec, so this
			// is a replica-side contract violation): surface it.
			return nil, serve.JobStatus{}, err
		default:
			// Transport error: strike the member so a dead replica leaves
			// the ring after FailThreshold strikes, then try the next one.
			if m.fault(r.opts.FailThreshold) {
				r.opts.Logf("replica %s unreachable during placement: %v", m.name, err)
				r.rebuildRing()
			}
		}
	}
	if busy > 0 {
		if minHint < time.Second {
			minHint = time.Second // honest floor: never tell clients to hammer
		}
		return nil, serve.JobStatus{}, &BusyError{Replicas: busy, RetryAfter: minHint}
	}
	return nil, serve.JobStatus{}, ErrNoReplicas
}

// watch follows one routed job to its terminal state through the
// placement's SSE events stream: progress is forwarded to the router's own
// subscribers, the terminal "done" event triggers one result fetch, a
// canceled job cancels its placement, and replica faults reroute. It is the
// only goroutine that transitions the job, so reroutes are sequential and
// the terminal transition is unique.
func (r *Router) watch(j *Job) {
	defer r.jobsWG.Done()
	defer r.inflight.Add(-1)

	drops := 0 // consecutive follows of the current placement that failed without progress
	for {
		if j.ctx.Err() != nil {
			r.cancelRemote(j)
			r.finishJob(j, serve.StateCanceled, cancelCause(j.ctx), nil)
			return
		}

		memberName, remoteID := j.placement()
		m := r.memberByName(memberName)
		st, progressed, err := r.follow(j, m, remoteID)
		if progressed {
			drops = 0 // the stream was live: earlier drops are not consecutive
		}
		if err != nil {
			if j.ctx.Err() != nil {
				continue // the check above finishes the job
			}
			var apiErr *serveclient.APIError
			// A 404 means the replica restarted without the job: lost
			// outright. Anything else — a dropped stream, one that ended
			// without its done event, a 5xx — may be transient: retry
			// after a backoff wait until FailThreshold consecutive drops
			// or the member leaving the ring declare the placement lost.
			lost := errors.As(err, &apiErr) && apiErr.StatusCode == 404
			if !lost {
				drops++
				if !errors.As(err, &apiErr) && m.fault(r.opts.FailThreshold) {
					r.opts.Logf("replica %s unreachable while watching %s: %v", m.name, j.ID, err)
					r.rebuildRing()
				}
				lost = drops >= r.opts.FailThreshold || !m.Healthy()
			}
			if !lost {
				// A wait cut short by cancellation ends at the ctx check.
				_ = serveclient.SleepContext(j.ctx, r.opts.Backoff.Delay(drops-1, 0))
				continue
			}
			if !r.reroute(j, fmt.Sprintf("replica %s lost (last error: %v)", memberName, err)) {
				return
			}
			drops = 0
			continue
		}
		drops = 0

		switch st.State {
		case serve.StateSucceeded:
			if st.Result != nil {
				if st.Result.CacheHit {
					r.metrics.CacheHits.Add(1)
				} else {
					r.metrics.CacheMisses.Add(1)
				}
			}
			r.finishJob(j, serve.StateSucceeded, "", st.Result)
			return
		case serve.StateFailed:
			if !strings.Contains(st.Error, serve.DrainAbortReason) {
				r.finishJob(j, serve.StateFailed, st.Error, nil)
				return
			}
			// The replica's drain aborted the job — a replica fault, not a
			// job failure: re-run it elsewhere.
			if !r.reroute(j, fmt.Sprintf("replica %s drain-aborted the job", memberName)) {
				return
			}
		default: // serve.StateCanceled
			if j.ctx.Err() != nil || strings.Contains(st.Error, "deadline") {
				// The router's client canceled it, or the job's own
				// deadline expired: honest terminal cancellation.
				r.finishJob(j, serve.StateCanceled, st.Error, nil)
				return
			}
			// Canceled by a replica shutdown the job did not ask for.
			if !r.reroute(j, fmt.Sprintf("replica %s canceled the job during shutdown (%s)", memberName, st.Error)) {
				return
			}
		}
	}
}

// errUnreachable cuts a follow whose replica was marked unreachable.
var errUnreachable = errors.New("fleet: replica marked unreachable")

// follow streams one placement's events until its terminal "done" event,
// forwarding the state snapshots and progress into the routed job, then
// fetches the replica's terminal status and result once. progressed reports
// whether the stream delivered a progress event. The follow is cut when the
// member is marked unreachable, so a replica that hangs instead of crashing
// cannot hold the job past its eviction from the ring.
func (r *Router) follow(j *Job, m *member, remoteID string) (st serve.JobStatus, progressed bool, err error) {
	ctx, cancel := context.WithCancelCause(j.ctx)
	defer cancel(nil)
	lost := m.Lost()
	go func() {
		select {
		case <-lost:
			cancel(errUnreachable)
		case <-ctx.Done():
		}
	}()
	err = m.client.Events(ctx, remoteID, func(ev serve.Event) bool {
		if ev.Type == "progress" {
			progressed = true
		}
		if ev.Type != "done" {
			j.progress(ev)
		}
		return true
	})
	if err == nil {
		st, err = m.client.Result(ctx, remoteID)
	}
	if err != nil && j.ctx.Err() == nil && errors.Is(context.Cause(ctx), errUnreachable) {
		err = errUnreachable
	}
	return st, progressed, err
}

// reroute re-places a job after a replica fault, retrying saturated fleets
// under the shared backoff policy. It reports true when the job is running
// somewhere again; on false the job has reached a terminal state (reroute
// budget or admission attempts exhausted, or canceled mid-backoff) — either
// way the job is never silently dropped.
func (r *Router) reroute(j *Job, why string) bool {
	n := j.noteReroute()
	r.metrics.Rerouted.Add(1)
	if n > r.opts.MaxReroutes {
		r.finishJob(j, serve.StateFailed,
			fmt.Sprintf("fleet: job exceeded %d reroutes: %s", r.opts.MaxReroutes, why), nil)
		return false
	}
	r.opts.Logf("rerouting job %s (attempt %d/%d): %s", j.ID, n, r.opts.MaxReroutes, why)

	policy := r.opts.Backoff
	attempts := policy.MaxAttempts
	if attempts <= 0 {
		attempts = 8
	}
	for attempt := 0; attempt < attempts; attempt++ {
		if j.ctx.Err() != nil {
			r.cancelRemote(j)
			r.finishJob(j, serve.StateCanceled, cancelCause(j.ctx), nil)
			return false
		}
		m, st, err := r.placeOnce(j.ctx, j)
		if err == nil {
			j.place(m.name, st.ID)
			return true
		}
		var hint time.Duration
		var busyErr *BusyError
		switch {
		case errors.As(err, &busyErr):
			hint = busyErr.RetryAfter
		case errors.Is(err, ErrNoReplicas):
			// Wait out a health interval: a replica may come back or a
			// fresh one may be marked healthy again.
			hint = r.opts.HealthInterval
		default:
			if j.ctx.Err() != nil {
				r.cancelRemote(j)
				r.finishJob(j, serve.StateCanceled, cancelCause(j.ctx), nil)
				return false
			}
			r.finishJob(j, serve.StateFailed, fmt.Sprintf("fleet: re-placement failed: %v", err), nil)
			return false
		}
		if serveclient.SleepContext(j.ctx, policy.Delay(attempt, hint)) != nil {
			r.cancelRemote(j)
			r.finishJob(j, serve.StateCanceled, cancelCause(j.ctx), nil)
			return false
		}
	}
	r.finishJob(j, serve.StateFailed,
		fmt.Sprintf("fleet: no replica accepted the rerouted job after %d attempts: %s", attempts, why), nil)
	return false
}

// cancelRemote best-effort cancels the job's current placement so an
// abandoned attempt does not keep burning a replica slot.
func (r *Router) cancelRemote(j *Job) {
	memberName, remoteID := j.placement()
	if remoteID == "" {
		return
	}
	m := r.memberByName(memberName)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = m.client.Cancel(ctx, remoteID)
}

// memberByName looks a member up; it always exists (membership is static).
func (r *Router) memberByName(name string) *member {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.members[name]
}

// finishJob performs the terminal transition and bumps the counters exactly
// once.
func (r *Router) finishJob(j *Job, state serve.JobState, errMsg string, result *serve.Result) {
	if !j.finish(state, errMsg, result) {
		return
	}
	// Retire before Done fires: a waiter that sees the job terminal sees
	// the registry already bounded.
	r.mu.Lock()
	if old := r.retired.Retire(j.ID); old != "" {
		delete(r.jobs, old)
	}
	r.mu.Unlock()
	close(j.done)
	switch state {
	case serve.StateSucceeded:
		r.metrics.Succeeded.Add(1)
	case serve.StateFailed:
		r.metrics.Failed.Add(1)
		r.opts.Logf("job %s failed: %s", j.ID, errMsg)
	case serve.StateCanceled:
		r.metrics.Canceled.Add(1)
	}
}

// cancelCause extracts the cancellation reason of a job context.
func cancelCause(ctx context.Context) string {
	cause := context.Cause(ctx)
	if cause == nil {
		cause = ctx.Err()
	}
	if cause == nil {
		return "canceled"
	}
	if cause == context.DeadlineExceeded {
		return "deadline exceeded"
	}
	return cause.Error()
}

// Job looks a routed job up by id.
func (r *Router) Job(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// Status returns a job's API snapshot.
func (r *Router) Status(j *Job) serve.JobStatus { return j.status() }

// Cancel requests a routed job's cancellation; the watcher forwards it to
// the replica currently running the job.
func (r *Router) Cancel(j *Job, reason string) { j.Cancel(reason) }

// Draining reports whether the router has stopped admitting jobs.
func (r *Router) Draining() bool { return r.draining.Load() }

// Drain performs the graceful shutdown contract: stop admitting, let routed
// jobs reach terminal states within the timeout, then cancel survivors and
// wait for their watchers to unwind.
func (r *Router) Drain(timeout time.Duration) error {
	r.draining.Store(true)
	done := make(chan struct{})
	go func() {
		r.jobsWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		survivors := 0
		r.mu.Lock()
		jobs := make([]*Job, 0, len(r.jobs))
		for _, j := range r.jobs {
			jobs = append(jobs, j)
		}
		r.mu.Unlock()
		for _, j := range jobs {
			if !j.State().Terminal() {
				survivors++
				j.Cancel("aborted by router drain")
			}
		}
		r.opts.Logf("drain timeout: canceled %d surviving jobs", survivors)
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			r.shutdown()
			return fmt.Errorf("fleet: drain: %d jobs did not unwind after cancel", survivors)
		}
	}
	r.shutdown()
	return nil
}

// Close shuts the router down without waiting for jobs to finish naturally:
// every non-terminal job is canceled. Intended for tests and error paths.
func (r *Router) Close() {
	r.draining.Store(true)
	r.mu.Lock()
	jobs := make([]*Job, 0, len(r.jobs))
	for _, j := range r.jobs {
		jobs = append(jobs, j)
	}
	r.mu.Unlock()
	for _, j := range jobs {
		if !j.State().Terminal() {
			j.Cancel("router closed")
		}
	}
	r.jobsWG.Wait()
	r.shutdown()
}

// shutdown stops the health loop (idempotent).
func (r *Router) shutdown() {
	r.closeOnce.Do(func() {
		close(r.stop)
		r.healthWG.Wait()
	})
}
