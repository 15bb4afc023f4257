package fleet

import (
	"context"
	"fmt"
	"sync"

	"islands/internal/serve"
)

// Job is one routed job: the router-side FSM mirroring the replica states
// (serve.JobState), plus the placement the watcher is currently following.
// The FSM transitions to a terminal state exactly once no matter how many
// replicas the job visits — a reroute replaces the placement, never the job.
type Job struct {
	ID   string
	Spec serve.Spec

	// key is the consistent-hash point of the job's engine CacheKey; home
	// is the ring owner at placement time (steal accounting compares the
	// actual placement against it).
	key  uint64
	home string

	ctx    context.Context
	cancel context.CancelCauseFunc

	mu       sync.Mutex
	state    serve.JobState
	step     int
	errMsg   string
	result   *serve.Result
	replica  string // member name currently (or last) running the job
	remoteID string // replica-side job id of the current placement
	reroutes int    // replica faults survived
	stolen   bool   // true if any placement landed off-home

	// events fans the routed job's progress out to the router's SSE
	// subscribers.
	events serve.EventHub

	done chan struct{}
}

func newFleetJob(id string, spec serve.Spec, key uint64) *Job {
	ctx, cancel := context.WithCancelCause(context.Background())
	return &Job{
		ID:     id,
		Spec:   spec,
		key:    key,
		ctx:    ctx,
		cancel: cancel,
		state:  serve.StateQueued,
		done:   make(chan struct{}),
	}
}

// Cancel requests the job's cancellation; the watcher forwards it to the
// current replica and finishes the job canceled.
func (j *Job) Cancel(reason string) { j.cancel(fmt.Errorf("%s", reason)) }

// Done returns the channel closed at the terminal transition.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current state.
func (j *Job) State() serve.JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// place records a (re)placement: the job is running on member as remoteID.
func (j *Job) place(memberName, remoteID string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.replica = memberName
	j.remoteID = remoteID
	j.state = serve.StateRunning
	if memberName != j.home {
		j.stolen = true
	}
}

// placement returns the member name and replica-side id the watcher follows.
func (j *Job) placement() (memberName, remoteID string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.replica, j.remoteID
}

// noteReroute counts a survived replica fault and reports the new total.
func (j *Job) noteReroute() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.reroutes++
	return j.reroutes
}

// progress folds a replica state or progress event into the router-side
// view and forwards it to the router's subscribers. The router's step count never
// goes backwards: a rerouted job re-runs from step 0 on its new replica.
func (j *Job) progress(ev serve.Event) {
	j.mu.Lock()
	if ev.Step > j.step {
		j.step = ev.Step
	}
	ev.State, ev.Step, ev.Steps = j.state, j.step, j.Spec.Steps
	j.mu.Unlock()
	j.events.Publish(ev)
}

// finish performs the terminal transition exactly once, reporting whether
// this call did it — the exactly-once guarantee the failure-injection test
// asserts (a replica completing a job the router already gave up on cannot
// double-count). The caller closes done once its registry bookkeeping is
// complete (Router.finishJob).
func (j *Job) finish(state serve.JobState, errMsg string, result *serve.Result) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.errMsg = errMsg
	j.result = result
	ev := serve.Event{Type: "done", State: state, Step: j.step, Steps: j.Spec.Steps, Error: errMsg}
	j.mu.Unlock()
	j.events.Publish(ev)
	return true
}

// event snapshots the job as an SSE event body (the writer sets the type).
func (j *Job) event() serve.Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return serve.Event{State: j.state, Step: j.step, Steps: j.Spec.Steps, Error: j.errMsg}
}

// status snapshots the job in the single-server wire format (plus the fleet
// extras), so serveclient works identically against a router and a replica.
func (j *Job) status() serve.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return serve.JobStatus{
		ID:       j.ID,
		State:    j.state,
		Step:     j.step,
		Steps:    j.Spec.Steps,
		Error:    j.errMsg,
		Result:   j.result,
		Spec:     j.Spec,
		Replica:  j.replica,
		Reroutes: j.reroutes,
	}
}
