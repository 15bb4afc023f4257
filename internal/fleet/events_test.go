package fleet_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"islands/internal/fleet"
	"islands/internal/serve"
	serveclient "islands/internal/serve/client"
)

// waitRouterStep polls until the routed job reports at least step completed
// steps — proof that the router's events stream from the replica delivers.
func waitRouterStep(t *testing.T, router *fleet.Router, j *fleet.Job, step int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for router.Status(j).Step < step {
		if time.Now().After(deadline) {
			t.Fatalf("router view of %s stuck at step %d, want %d", j.ID, router.Status(j).Step, step)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// readEvents reads a raw SSE stream to EOF and decodes every data line.
func readEvents(t *testing.T, resp *http.Response) []serve.Event {
	t.Helper()
	defer resp.Body.Close()
	var evs []serve.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", data, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestFleetEventsWireContract pins the router's GET /v1/jobs/{id}/events:
// the stream opens with a state snapshot, forwards the replica's progress,
// carries exactly one terminal done event and then closes; an unknown id is
// a 404. The raw stream is read to EOF, so a duplicate done would show.
func TestFleetEventsWireContract(t *testing.T) {
	gate := make(chan struct{})
	replicas, urls := startReplicas(t, 2, serve.Options{Slots: 1, EngineFactory: blockFactory(gate, 0)})
	router, err := fleet.NewRouter(fastRouterOptions(urls, t))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rhs := httptest.NewServer(router.Handler())
	defer rhs.Close()

	j, err := router.Submit(context.Background(), fleetSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	waitReplicaRunning(t, replicas[router.Status(j).Replica], 1)

	resp, err := http.Get(rhs.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("events = %d %q, want 200 text/event-stream", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	streamed := make(chan []serve.Event, 1)
	go func() { streamed <- readEvents(t, resp) }()

	// Release the steps one at a time. Once the router has seen step 1 its
	// replica stream is attached, so steps 2 and 3 arrive as forwarded
	// progress rather than as a later snapshot.
	for step := 1; step <= 3; step++ {
		gate <- struct{}{}
		waitRouterStep(t, router, j, step)
	}
	var evs []serve.Event
	select {
	case evs = <-streamed:
	case <-time.After(10 * time.Second):
		t.Fatal("router events stream did not close after the terminal event")
	}

	if len(evs) == 0 || evs[0].Type != "state" {
		t.Fatalf("events %+v: want an opening state snapshot", evs)
	}
	progress, done := 0, 0
	for _, ev := range evs {
		switch ev.Type {
		case "progress":
			progress++
			if ev.Steps != 3 || ev.State != serve.StateRunning {
				t.Fatalf("progress event %+v, want running with 3 steps", ev)
			}
		case "done":
			done++
		}
	}
	if progress == 0 {
		t.Fatalf("events %+v: no forwarded progress", evs)
	}
	last := evs[len(evs)-1]
	if done != 1 || last.Type != "done" || last.State != serve.StateSucceeded || last.Step != 3 {
		t.Fatalf("events %+v: want exactly one done (succeeded, step 3), last", evs)
	}

	// A finished job's stream replays the terminal state at once.
	client := serveclient.New(rhs.URL)
	var replay []serve.Event
	if err := client.Events(context.Background(), j.ID, func(ev serve.Event) bool {
		replay = append(replay, ev)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(replay) != 2 || replay[0].Type != "state" || replay[1].Type != "done" {
		t.Fatalf("replay of a finished job = %+v, want state then done", replay)
	}

	var apiErr *serveclient.APIError
	if err := client.Events(context.Background(), "f99999999", func(serve.Event) bool { return true }); !errors.As(err, &apiErr) || apiErr.StatusCode != 404 {
		t.Fatalf("events of an unknown job = %v, want 404", err)
	}
}

// TestFleetReplicaKilledMidStream kills the home replica while the router's
// events streams from it are live and while a client waits on the router's
// own stream: every job must be rerouted and succeed (none lost, none
// failed), and the client's wait must end with the succeeded result.
func TestFleetReplicaKilledMidStream(t *testing.T) {
	replicas, urls := startReplicas(t, 3, serve.Options{
		Slots: 1, QueueDepth: 16,
		EngineFactory: blockFactory(closedGate(), 20*time.Millisecond),
	})
	router, err := fleet.NewRouter(fastRouterOptions(urls, t))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rhs := httptest.NewServer(router.Handler())
	defer rhs.Close()
	client := serveclient.New(rhs.URL)
	ctx := context.Background()

	const jobs = 4
	routed := make([]*fleet.Job, 0, jobs)
	for i := 0; i < jobs; i++ {
		j, err := router.Submit(ctx, fleetSpec(10))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		routed = append(routed, j)
	}
	victimURL := router.Status(routed[0]).Replica
	awaited := make(chan serve.JobStatus, 1)
	awaitErr := make(chan error, 1)
	go func() {
		st, err := client.Await(ctx, routed[0].ID)
		awaited <- st
		awaitErr <- err
	}()
	// Step 2 reached through the router means the stream is mid-job.
	waitRouterStep(t, router, routed[0], 2)
	replicas[victimURL].kill()

	for i, j := range routed {
		if st := waitFleetJob(t, j); st != serve.StateSucceeded {
			t.Fatalf("job %d finished %s after the kill: %s", i, st, router.Status(j).Error)
		}
		if got := router.Status(j).Replica; got == victimURL {
			t.Fatalf("job %d reports the dead replica %s as its placement", i, got)
		}
	}
	if err := <-awaitErr; err != nil {
		t.Fatalf("client wait through the router's events: %v", err)
	}
	if st := <-awaited; st.State != serve.StateSucceeded || st.Result == nil || st.Reroutes == 0 {
		t.Fatalf("awaited status = %+v, want succeeded with a result after a reroute", st)
	}
	m := router.Metrics()
	if m.Succeeded.Load() != jobs || m.Failed.Load() != 0 || m.Canceled.Load() != 0 {
		t.Fatalf("terminal counters: %d succeeded, %d failed, %d canceled — want %d/0/0",
			m.Succeeded.Load(), m.Failed.Load(), m.Canceled.Load(), jobs)
	}
	if m.Rerouted.Load() == 0 {
		t.Fatal("no reroutes counted although the home replica was killed mid-stream")
	}
}

// TestFleetTerminalJobRetentionBounded routes one job more than the
// retention bound: the oldest terminal routed job leaves the router's
// registry and its id answers 404, the newest stays queryable.
func TestFleetTerminalJobRetentionBounded(t *testing.T) {
	_, urls := startReplicas(t, 1, serve.Options{Slots: 1, EngineFactory: blockFactory(closedGate(), 0)})
	router, err := fleet.NewRouter(fastRouterOptions(urls, t))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rhs := httptest.NewServer(router.Handler())
	defer rhs.Close()

	var ids []string
	for i := 0; i <= serve.RetainedJobs; i++ {
		j, err := router.Submit(context.Background(), fleetSpec(1))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if st := waitFleetJob(t, j); st != serve.StateSucceeded {
			t.Fatalf("job %d finished %s: %s", i, st, router.Status(j).Error)
		}
		ids = append(ids, j.ID)
	}
	if _, ok := router.Job(ids[0]); ok {
		t.Fatalf("oldest terminal job %s still retained after %d newer ones", ids[0], serve.RetainedJobs)
	}
	client := serveclient.New(rhs.URL)
	var apiErr *serveclient.APIError
	if _, err := client.Status(context.Background(), ids[0]); !errors.As(err, &apiErr) || apiErr.StatusCode != 404 {
		t.Fatalf("status of the evicted job = %v, want 404", err)
	}
	if _, err := client.Result(context.Background(), ids[len(ids)-1]); err != nil {
		t.Fatalf("result of the newest job: %v", err)
	}
}

// startWrappedReplica starts one replica whose HTTP front runs through wrap,
// so a test can stall or sever its connections while the server lives on.
func startWrappedReplica(t *testing.T, opts serve.Options, wrap func(http.Handler) http.Handler) string {
	t.Helper()
	opts.Logf = t.Logf
	srv := serve.NewServer(opts)
	hs := httptest.NewServer(wrap(srv.Handler()))
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return hs.URL
}

// hangSwitch freezes a replica the way SIGSTOP or a silent network partition
// would: once on, every new request blocks without an answer, and open
// streams simply go quiet.
type hangSwitch struct {
	on      atomic.Bool
	release chan struct{}
}

func (h *hangSwitch) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h.on.Load() {
			select {
			case <-h.release:
			case <-r.Context().Done():
			}
			return
		}
		next.ServeHTTP(w, r)
	})
}

// TestFleetHungReplicaRerouted freezes the replica running a job while the
// router's events stream from it is open and idle: the health loop marks it
// unreachable, which must cut the stream and reroute the job, which then
// succeeds elsewhere.
func TestFleetHungReplicaRerouted(t *testing.T) {
	gate := make(chan struct{})
	opts := serve.Options{Slots: 1, EngineFactory: blockFactory(gate, 0)}
	switches := map[string]*hangSwitch{}
	var urls []string
	for i := 0; i < 2; i++ {
		h := &hangSwitch{release: make(chan struct{})}
		url := startWrappedReplica(t, opts, h.wrap)
		switches[url] = h
		urls = append(urls, url)
	}
	router, err := fleet.NewRouter(fastRouterOptions(urls, t))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	for _, h := range switches {
		defer close(h.release)
	}

	j, err := router.Submit(context.Background(), fleetSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{}
	waitRouterStep(t, router, j, 1) // the stream is attached and now idle
	victim := router.Status(j).Replica
	switches[victim].on.Store(true)

	deadline := time.Now().Add(10 * time.Second)
	for router.Status(j).Replica == victim {
		if time.Now().After(deadline) {
			t.Fatalf("job still placed on the hung replica %s (state %s)", victim, j.State())
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(gate)
	if st := waitFleetJob(t, j); st != serve.StateSucceeded {
		t.Fatalf("job finished %s after its replica hung: %s", st, router.Status(j).Error)
	}
	if st := router.Status(j); st.Reroutes != 1 {
		t.Fatalf("status %+v, want exactly one reroute", st)
	}
}

// streamDropper severs a replica's open events streams on demand; every
// other request passes through untouched.
type streamDropper struct {
	mu      sync.Mutex
	cancels []context.CancelFunc
}

func (d *streamDropper) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			ctx, cancel := context.WithCancel(r.Context())
			d.mu.Lock()
			d.cancels = append(d.cancels, cancel)
			d.mu.Unlock()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}

func (d *streamDropper) drop() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, cancel := range d.cancels {
		cancel()
	}
	d.cancels = nil
}

// TestFleetStreamDropsApartNotRerouted drops a job's events stream twice,
// with forwarded progress in between: the drops are not consecutive, so the
// job keeps its placement and its progress instead of being rerouted.
func TestFleetStreamDropsApartNotRerouted(t *testing.T) {
	gate := make(chan struct{})
	d := &streamDropper{}
	url := startWrappedReplica(t, serve.Options{Slots: 1, EngineFactory: blockFactory(gate, 0)}, d.wrap)
	opts := fastRouterOptions([]string{url}, t)
	router, err := fleet.NewRouter(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	j, err := router.Submit(context.Background(), fleetSpec(6))
	if err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{}
	waitRouterStep(t, router, j, 1)
	d.drop()
	// Step 2 may reach the router as the re-subscribed stream's opening
	// snapshot, but that stream subscribes before it snapshots, so step 3
	// arrives as forwarded progress.
	for step := 2; step <= 3; step++ {
		gate <- struct{}{}
		waitRouterStep(t, router, j, step)
	}
	// Let a health probe clear the member's transport strike from the
	// first drop, so only the watcher's own drop count is under test.
	time.Sleep(5 * opts.HealthInterval)
	d.drop()
	close(gate)
	if st := waitFleetJob(t, j); st != serve.StateSucceeded {
		t.Fatalf("job finished %s: %s", st, router.Status(j).Error)
	}
	if n := router.Metrics().Rerouted.Load(); n != 0 {
		t.Fatalf("%d reroutes after two non-consecutive stream drops, want 0", n)
	}
}
