package fleet_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"islands/internal/exec"
	"islands/internal/fleet"
	"islands/internal/serve"
	serveclient "islands/internal/serve/client"
)

// blockEngine is a deterministic test engine: every Step consumes one token
// from the shared gate (a closed gate free-runs), a positive stepDelay adds
// wall time per step, and Abort unblocks a pending Step with an error — the
// same contract the real runner's barrier-abort path provides.
type blockEngine struct {
	gate      <-chan struct{}
	stepDelay time.Duration

	mu      sync.Mutex
	aborted bool
	reason  string
	abortCh chan struct{}
}

func (e *blockEngine) Reset() error { return nil }

func (e *blockEngine) Step() error {
	e.mu.Lock()
	if e.aborted {
		reason := e.reason
		e.mu.Unlock()
		return fmt.Errorf("test engine aborted: %s", reason)
	}
	ch := e.abortCh
	e.mu.Unlock()
	if e.stepDelay > 0 {
		t := time.NewTimer(e.stepDelay)
		select {
		case <-t.C:
		case <-ch:
			t.Stop()
			e.mu.Lock()
			reason := e.reason
			e.mu.Unlock()
			return fmt.Errorf("test engine aborted: %s", reason)
		}
	}
	select {
	case <-e.gate:
		return nil
	case <-ch:
		e.mu.Lock()
		reason := e.reason
		e.mu.Unlock()
		return fmt.Errorf("test engine aborted: %s", reason)
	}
}

func (e *blockEngine) Abort(reason string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.aborted {
		e.aborted = true
		e.reason = reason
		close(e.abortCh)
	}
}

func (e *blockEngine) Checksums() serve.Checksums { return serve.Checksums{Sum: 1} }
func (e *blockEngine) SetProfiling(bool)          {}
func (e *blockEngine) Profile() *exec.Profile     { return nil }
func (e *blockEngine) Info() serve.EngineInfo     { return serve.EngineInfo{KSteps: 1} }
func (e *blockEngine) Close()                     {}

func blockFactory(gate <-chan struct{}, stepDelay time.Duration) serve.EngineFactory {
	return func(serve.NormSpec) (serve.Engine, error) {
		return &blockEngine{gate: gate, stepDelay: stepDelay, abortCh: make(chan struct{})}, nil
	}
}

// closedGate returns an already-closed gate: engines free-run.
func closedGate() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// replica is one test fleet member: the serve.Server plus its HTTP front.
type replica struct {
	srv *serve.Server
	hs  *httptest.Server
}

// kill takes the replica down the way a crash would: the listener goes
// first (no new connections, so no re-subscribing events stream can slip
// in), then every open connection — the router's events streams included —
// drops, and the server's in-flight work dies with it.
func (r *replica) kill() {
	r.hs.Listener.Close()
	r.hs.CloseClientConnections()
	r.srv.Close()
	r.hs.Close()
}

func startReplicas(t *testing.T, n int, opts serve.Options) (map[string]*replica, []string) {
	t.Helper()
	byURL := make(map[string]*replica, n)
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		o := opts
		o.Logf = t.Logf
		srv := serve.NewServer(o)
		hs := httptest.NewServer(srv.Handler())
		byURL[hs.URL] = &replica{srv: srv, hs: hs}
		urls = append(urls, hs.URL)
	}
	t.Cleanup(func() {
		for _, r := range byURL {
			r.hs.Close()
			r.srv.Close()
		}
	})
	return byURL, urls
}

func fastRouterOptions(urls []string, t *testing.T) fleet.Options {
	return fleet.Options{
		Replicas:       urls,
		HealthInterval: 20 * time.Millisecond,
		FailThreshold:  2,
		Backoff:        serveclient.BackoffPolicy{Initial: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		Logf:           t.Logf,
	}
}

func fleetSpec(steps int) serve.Spec {
	return serve.Spec{Grid: "32x16x8", Steps: steps, Processors: 2}
}

// waitFleetJob blocks until the routed job finishes (or the test times out).
func waitFleetJob(t *testing.T, j *fleet.Job) serve.JobState {
	t.Helper()
	select {
	case <-j.Done():
		return j.State()
	case <-time.After(60 * time.Second):
		t.Fatalf("fleet job %s did not reach a terminal state (stuck %s)", j.ID, j.State())
		return ""
	}
}

// waitReplicaRunning polls until the replica reports n executing jobs.
func waitReplicaRunning(t *testing.T, r *replica, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if r.srv.Stats().Running == n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("replica never reached %d running jobs (stats %+v)", n, r.srv.Stats())
}

// TestFleetAffinityConcentratesCache submits the same spec repeatedly through
// a 3-replica fleet: every job must land on the one home replica the hash
// picks, so after the first compile every job is an engine-cache hit — the
// fleet-wide hit rate matches a single warm server.
func TestFleetAffinityConcentratesCache(t *testing.T) {
	_, urls := startReplicas(t, 3, serve.Options{Slots: 1, EngineFactory: blockFactory(closedGate(), 0)})
	router, err := fleet.NewRouter(fastRouterOptions(urls, t))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	const jobs = 9
	homes := map[string]int{}
	for i := 0; i < jobs; i++ {
		j, err := router.Submit(context.Background(), fleetSpec(2))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if st := waitFleetJob(t, j); st != serve.StateSucceeded {
			t.Fatalf("job %d finished %s: %s", i, st, router.Status(j).Error)
		}
		homes[router.Status(j).Replica]++
	}
	if len(homes) != 1 {
		t.Fatalf("identical specs spread over %d replicas (%v), want 1 home", len(homes), homes)
	}
	m := router.Metrics()
	if hits, misses := m.CacheHits.Load(), m.CacheMisses.Load(); hits < jobs-1 || misses > 1 {
		t.Fatalf("fleet cache hits %d / misses %d, want >= %d hits from affinity", hits, misses, jobs-1)
	}
	if m.Steals.Load() != 0 {
		t.Fatalf("unsaturated fleet stole %d placements, want 0", m.Steals.Load())
	}
}

// TestFleetWorkStealingAndAggregate429 saturates the home replica so
// placements overflow to the ring successor, then saturates the whole fleet
// and asserts the aggregate backpressure contract: *BusyError from Submit,
// and HTTP 429 with an integer Retry-After >= 1 at the router API.
func TestFleetWorkStealingAndAggregate429(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	replicas, urls := startReplicas(t, 2, serve.Options{
		Slots: 1, QueueDepth: 1, RetryAfter: 2 * time.Second,
		EngineFactory: blockFactory(gate, 0),
	})
	router, err := fleet.NewRouter(fastRouterOptions(urls, t))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	ctx := context.Background()

	// Job 1 occupies the home slot; wait for it to actually execute so job 2
	// lands in the home queue rather than racing the dispatcher.
	j1, err := router.Submit(ctx, fleetSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	home := router.Status(j1).Replica
	other := urls[0]
	if other == home {
		other = urls[1]
	}
	waitReplicaRunning(t, replicas[home], 1)

	j2, err := router.Submit(ctx, fleetSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := router.Status(j2).Replica; got != home {
		t.Fatalf("job 2 placed on %s, want home %s", got, home)
	}

	// Home is now saturated (slot + queue): job 3 must be stolen.
	j3, err := router.Submit(ctx, fleetSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := router.Status(j3).Replica; got != other {
		t.Fatalf("job 3 placed on %s, want steal to %s", got, other)
	}
	if router.Metrics().Steals.Load() == 0 {
		t.Fatal("steal not counted in fleet metrics")
	}
	waitReplicaRunning(t, replicas[other], 1)
	j4, err := router.Submit(ctx, fleetSpec(1))
	if err != nil {
		t.Fatal(err)
	}

	// Fleet full: 2 slots + 2 queue entries. The next submission aggregates
	// every replica's 429 into one honest rejection.
	_, err = router.Submit(ctx, fleetSpec(1))
	var busy *fleet.BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("submit into full fleet = %v, want *BusyError", err)
	}
	if busy.Replicas != 2 || busy.RetryAfter < time.Second {
		t.Fatalf("busy = %+v, want 2 replicas and >= 1s hint", busy)
	}

	// Same contract over HTTP: 429 plus an integer Retry-After >= 1.
	rhs := httptest.NewServer(router.Handler())
	defer rhs.Close()
	resp, err := http.Post(rhs.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"grid":"32x16x8","steps":1,"processors":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("router submit = %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}

	// Release the fleet; every admitted job must finish.
	go func() {
		for i := 0; i < 4; i++ {
			gate <- struct{}{}
		}
	}()
	for i, j := range []*fleet.Job{j1, j2, j3, j4} {
		if st := waitFleetJob(t, j); st != serve.StateSucceeded {
			t.Fatalf("job %d finished %s: %s", i+1, st, router.Status(j).Error)
		}
	}
}

// TestFleetFailureInjection is the acceptance scenario: kill a replica with
// jobs queued and running on it, and every affected job must be rerouted to a
// survivor and re-run — each reaching exactly one terminal state, none lost,
// none failed. Also asserts the router unwinds to the baseline goroutine
// count afterwards.
func TestFleetFailureInjection(t *testing.T) {
	before := runtime.NumGoroutine()

	replicas, urls := startReplicas(t, 3, serve.Options{
		Slots: 1, QueueDepth: 16,
		EngineFactory: blockFactory(closedGate(), 30*time.Millisecond),
	})
	router, err := fleet.NewRouter(fastRouterOptions(urls, t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Same spec for every job: all of them home onto one replica, so killing
	// it hits one running job plus a deep queue.
	const jobs = 6
	routed := make([]*fleet.Job, 0, jobs)
	for i := 0; i < jobs; i++ {
		j, err := router.Submit(ctx, fleetSpec(4))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		routed = append(routed, j)
	}
	victimURL := router.Status(routed[0]).Replica
	victim := replicas[victimURL]
	waitReplicaRunning(t, victim, 1)

	victim.kill()

	for i, j := range routed {
		if st := waitFleetJob(t, j); st != serve.StateSucceeded {
			t.Fatalf("job %d finished %s after replica kill: %s", i, st, router.Status(j).Error)
		}
		if got := router.Status(j).Replica; got == victimURL {
			t.Fatalf("job %d reports the dead replica %s as its placement", i, got)
		}
	}

	m := router.Metrics()
	if m.Succeeded.Load() != jobs || m.Failed.Load() != 0 || m.Canceled.Load() != 0 {
		t.Fatalf("terminal counters: %d succeeded, %d failed, %d canceled — want %d/0/0 (exactly-once)",
			m.Succeeded.Load(), m.Failed.Load(), m.Canceled.Load(), jobs)
	}
	if m.Rerouted.Load() == 0 {
		t.Fatal("no reroutes counted although the home replica was killed mid-run")
	}

	// The health checker must have evicted the victim from the membership.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if healthy := countHealthy(router); healthy == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead replica never left the membership (healthy=%d)", countHealthy(router))
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := router.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for url, r := range replicas {
		if url != victimURL {
			r.hs.Close()
			r.srv.Close()
		}
	}

	leakDeadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(leakDeadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+3 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after drain — leak", before, runtime.NumGoroutine())
}

func countHealthy(router *fleet.Router) int {
	rec := httptest.NewRecorder()
	router.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "fleet_replicas_healthy "); ok {
			n, _ := strconv.Atoi(strings.TrimSpace(v))
			return n
		}
	}
	return -1
}

// TestFleetDrainAbortReroute covers the replica-side requeue hook: a replica
// drain aborts a running job with serve.DrainAbortReason, and the router must
// recognize that as a replica fault — rerouting the job to a survivor and
// re-running it — rather than reporting the drain abort as a job failure.
func TestFleetDrainAbortReroute(t *testing.T) {
	gate := make(chan struct{})
	replicas, urls := startReplicas(t, 2, serve.Options{
		Slots: 1, EngineFactory: blockFactory(gate, 0),
	})
	router, err := fleet.NewRouter(fastRouterOptions(urls, t))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	ctx := context.Background()

	j, err := router.Submit(ctx, fleetSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	home := router.Status(j).Replica
	waitReplicaRunning(t, replicas[home], 1)

	// Drain the home replica: the blocked step is aborted with the drain
	// reason, the remote job fails, and the router must reroute.
	drained := make(chan error, 1)
	go func() { drained <- replicas[home].srv.Drain(30 * time.Millisecond) }()

	deadline := time.Now().Add(10 * time.Second)
	for router.Status(j).Replica == home {
		if time.Now().After(deadline) {
			t.Fatalf("job never rerouted off the draining replica (state %s, err %q)",
				j.State(), router.Status(j).Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(gate) // let the rerouted run free-run to completion

	if st := waitFleetJob(t, j); st != serve.StateSucceeded {
		t.Fatalf("rerouted job finished %s: %s", st, router.Status(j).Error)
	}
	st := router.Status(j)
	if st.Replica == home || st.Reroutes != 1 {
		t.Fatalf("status after reroute = replica %s, reroutes %d — want the survivor and 1", st.Replica, st.Reroutes)
	}
	if router.Metrics().Rerouted.Load() != 1 {
		t.Fatalf("fleet_reroutes_total = %d, want 1", router.Metrics().Rerouted.Load())
	}
	if err := <-drained; err != nil {
		t.Fatalf("replica drain: %v", err)
	}
}

// TestFleetHTTPDialect drives the router through the shared typed client:
// the router speaks the same wire dialect as a replica, so serveclient's
// submit/wait/cancel flow works unchanged, and bad input maps to the same
// status codes.
func TestFleetHTTPDialect(t *testing.T) {
	_, urls := startReplicas(t, 2, serve.Options{Slots: 1, EngineFactory: blockFactory(closedGate(), 0)})
	router, err := fleet.NewRouter(fastRouterOptions(urls, t))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rhs := httptest.NewServer(router.Handler())
	defer rhs.Close()
	client := serveclient.New(rhs.URL)
	ctx := context.Background()

	if err := client.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var apiErr *serveclient.APIError
	if _, err := client.Submit(ctx, serve.Spec{Grid: "0x0x0", Steps: 1}); !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Fatalf("bad spec through router = %v, want 400", err)
	}
	if _, err := client.Status(ctx, "f99999999"); !errors.As(err, &apiErr) || apiErr.StatusCode != 404 {
		t.Fatalf("unknown job through router = %v, want 404", err)
	}

	st, err := client.Submit(ctx, fleetSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateSucceeded || final.Result == nil || final.Result.Steps != 2 {
		t.Fatalf("final = %+v, want succeeded with 2 steps", final)
	}
	if final.Replica == "" {
		t.Fatal("router status does not report the serving replica")
	}

	// The fleet view lists both replicas with their stats.
	resp, err := http.Get(rhs.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /v1/fleet = %d", resp.StatusCode)
	}
}
