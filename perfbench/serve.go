package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"islands/internal/fleet"
	"islands/internal/grid"
	"islands/internal/serve"
	serveclient "islands/internal/serve/client"
	"islands/internal/solver"
	"islands/internal/topology"
	"islands/internal/tune"
)

// clients is the closed loop's caller count: each client sends its next job
// only after the previous one reached a terminal state.
const clients = 2

// pollInterval is the client's status poll when the endpoint has no SSE
// events stream.
const pollInterval = 10 * time.Millisecond

// serveSteps is the step count of every served job.
const serveSteps = 5

// strategies are the four execution strategies a served job can request.
var strategies = []struct {
	name string
	core bool
}{{"original", false}, {"3+1d", false}, {"islands", false}, {"islands", true}}

// smallNK is a solver's k-extent on serve-small's 48x32xNK grids: the
// packing rule of solvers that stack components along k, 8 otherwise.
func smallNK(solverName string) int {
	switch solverName {
	case "lbm":
		return 9
	case "swe":
		return 3
	case "wave":
		return 2
	case "life":
		return 1
	}
	return 8
}

// smallKeys lists serve-small's 28 engine keys: every catalog solver under
// every strategy.
func smallKeys() []serve.Spec {
	var specs []serve.Spec
	for _, s := range solver.Names() {
		for _, st := range strategies {
			specs = append(specs, serve.Spec{
				Grid: fmt.Sprintf("48x32x%d", smallNK(s)), Solver: s, Steps: serveSteps,
				Strategy: st.name, CoreIslands: st.core,
			})
		}
	}
	return specs
}

// jobSource yields the jobs of one run, in a sequence fixed by the seed.
type jobSource interface {
	next() serve.Spec
}

// smallSource draws keys uniformly from the 28 warmed keys.
type smallSource struct {
	mu   sync.Mutex
	r    *rand.Rand
	keys []serve.Spec
}

func (s *smallSource) next() serve.Spec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keys[s.r.Intn(len(s.keys))]
}

// coldSource draws a grid never used before in the run and submits it
// twice, under two distinct processor counts from {1, 2, 4}: every job is a
// new tuner class, and the pair is one problem whose checksums must agree.
type coldSource struct {
	mu      sync.Mutex
	r       *rand.Rand
	used    map[grid.Size]bool
	pairs   int
	pending []serve.Spec
}

var coldPairs = [][2]int{{1, 2}, {2, 4}, {1, 4}}

func (s *coldSource) next() serve.Spec {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		var d grid.Size
		for d = coldGrid(s.r); s.used[d]; d = coldGrid(s.r) {
		}
		s.used[d] = true
		// The pairs cycle through {1,2}, {2,4}, {1,4}, so every processor
		// count serves the same share of jobs; the seed orders each pair.
		ps := coldPairs[s.pairs%len(coldPairs)]
		s.pairs++
		if s.r.Intn(2) == 1 {
			ps[0], ps[1] = ps[1], ps[0]
		}
		for _, p := range ps {
			s.pending = append(s.pending, serve.Spec{Grid: d.String(), Solver: "mpdata",
				Steps: serveSteps, Processors: p})
		}
	}
	sp := s.pending[0]
	s.pending = s.pending[1:]
	return sp
}

// coldGrid draws a serve-cold grid: 48..80 x 24..40 x 6..10 cells.
func coldGrid(r *rand.Rand) grid.Size {
	return grid.Sz(48+r.Intn(33), 24+r.Intn(17), 6+r.Intn(5))
}

// stack is the in-process serving system under test: replicas behind their
// HTTP listeners, and for the fleet a router in front of them.
type stack struct {
	servers []*serve.Server
	router  *fleet.Router
	https   []*http.Server
	serving sync.WaitGroup
	base    string // the endpoint clients talk to
}

// listen serves h on a loopback port and returns its base URL.
func (s *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	s.https = append(s.https, hs)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// startStack starts serve-small's fleet (two one-slot replicas caching all
// 28 keys, behind a router) or serve-cold's single two-slot replica with
// the model-seeded tuner, exploration off. factory overrides the engine
// factory (nil = the server's default).
func startStack(workload string, seed int64, factory serve.EngineFactory) (*stack, error) {
	s := &stack{}
	if workload == "serve-cold" {
		tuner, err := serve.NewTuner(serve.TunerOptions{Seed: seed, Epsilon: -1})
		if err != nil {
			return nil, err
		}
		srv := serve.NewServer(serve.Options{Slots: 2, Tuner: tuner, EngineFactory: factory})
		s.servers = append(s.servers, srv)
		if s.base, err = s.listen(srv.Handler()); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
	var urls []string
	for i := 0; i < 2; i++ {
		srv := serve.NewServer(serve.Options{Slots: 1, MaxCached: len(smallKeys()), EngineFactory: factory})
		s.servers = append(s.servers, srv)
		u, err := s.listen(srv.Handler())
		if err != nil {
			s.close()
			return nil, err
		}
		urls = append(urls, u)
	}
	r, err := fleet.NewRouter(fleet.Options{Replicas: urls})
	if err != nil {
		s.close()
		return nil, err
	}
	s.router = r
	if s.base, err = s.listen(r.Handler()); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the router, the replicas and the listeners, and waits for
// every serving goroutine to return.
func (s *stack) close() {
	if s.router != nil {
		s.router.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	for _, hs := range s.https {
		hs.Close()
	}
	s.serving.Wait()
}

// jobRecord is one job as its client saw it. Times are milliseconds.
type jobRecord struct {
	spec                     serve.Spec
	ok                       bool // succeeded with checksums matching its problem
	latency, submit, q, wall float64
	cacheHit, traced         bool
	cells                    float64 // cell updates the job performed
}

// checker holds the first checksums seen for each (solver, grid, steps)
// problem; every later job of the problem must match them exactly.
type checker struct {
	mu  sync.Mutex
	ref map[string]serve.Checksums
}

func (c *checker) check(sp serve.Spec, got serve.Checksums) bool {
	key := fmt.Sprintf("%s/%s/%d", sp.Solver, sp.Grid, sp.Steps)
	c.mu.Lock()
	defer c.mu.Unlock()
	want, seen := c.ref[key]
	if !seen {
		c.ref[key] = got
		return true
	}
	if want != got {
		fmt.Printf("check: %s checksums %+v differ from %+v\n", key, got, want)
		return false
	}
	return true
}

// client is one closed-loop caller.
type client struct {
	c       *serveclient.Client
	events  bool // the endpoint serves /v1/jobs/{id}/events
	probed  bool
	retries int
}

// run submits one job and waits for its terminal state. The latency runs
// from the submit call to the client observing the terminal state; the
// result fetch after an events stream is not part of it.
func (cl *client) run(ctx context.Context, sp serve.Spec, chk *checker, spans *tracer, id int) jobRecord {
	rec := jobRecord{spec: sp}
	policy := serveclient.BackoffPolicy{OnRetry: func(int, time.Duration, error) { cl.retries++ }}
	t0 := time.Now()
	st, err := cl.c.SubmitRetry(ctx, sp, policy)
	tSub := time.Now()
	if err != nil {
		fmt.Printf("check: submit %s/%s: %v\n", sp.Solver, sp.Grid, err)
		return rec
	}
	// Each client checks once, on its first job, whether the endpoint
	// streams events; without them it polls.
	var final serve.JobStatus
	if !cl.probed || cl.events {
		err = cl.c.Events(ctx, st.ID, func(serve.Event) bool { return true })
		tEnd := time.Now()
		if !cl.probed {
			cl.probed = true
			var apiErr *serveclient.APIError
			cl.events = !(errors.As(err, &apiErr) &&
				(apiErr.StatusCode == http.StatusNotFound || apiErr.StatusCode == http.StatusMethodNotAllowed))
		}
		if cl.events {
			rec.latency = ms(tEnd.Sub(t0))
			if err == nil {
				final, err = cl.c.Result(ctx, st.ID)
			}
		}
	}
	if !cl.events {
		final, err = cl.c.Wait(ctx, st.ID, pollInterval)
		rec.latency = ms(time.Since(t0))
	}
	rec.submit = ms(tSub.Sub(t0))
	job := spans.record("job", id, -1, t0, t0.Add(time.Duration(rec.latency*1e6)))
	spans.record("client.Submit", id, job, t0, tSub)
	spans.record("client.wait", id, job, tSub, t0.Add(time.Duration(rec.latency*1e6)))
	if err != nil || final.State != serve.StateSucceeded || final.Result == nil {
		fmt.Printf("check: job %s (%s/%s) ended %s: %v %s\n", st.ID, sp.Solver, sp.Grid, final.State, err, final.Error)
		return rec
	}
	res := final.Result
	rec.q, rec.wall, rec.cacheHit = res.QueueMs, res.WallMs, res.CacheHit
	rec.ok = chk.check(sp, res.Checksums)
	if d, err := serve.ParseGrid(sp.Grid); err == nil {
		rec.cells = float64(d.Cells()) * float64(res.Steps)
	}
	return rec
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runServe drives serve-small or serve-cold: set the stack up setupReps
// times (start listeners, warm up), keep the last, then run the closed loop
// of two clients for cfg.seconds. With trace, every other job is traced and
// the traced jobs feed the per-layer metrics.
func runServe(cfg runConfig, factory serve.EngineFactory) (*outcome, error) {
	ctx := context.Background()
	chk := &checker{ref: map[string]serve.Checksums{}}
	var src jobSource
	if cfg.workload == "serve-cold" {
		src = &coldSource{r: rand.New(rand.NewSource(cfg.seed)), used: map[grid.Size]bool{}}
	} else {
		src = &smallSource{r: rand.New(rand.NewSource(cfg.seed)), keys: smallKeys()}
	}
	out := &outcome{values: metrics{}}
	var st *stack
	var cls []*client
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if st != nil {
			st.close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if st, err = startStack(cfg.workload, cfg.seed, factory); err != nil {
			return nil, err
		}
		cls = make([]*client, clients)
		for i := range cls {
			cls[i] = &client{c: serveclient.New(st.base)}
		}
		recs := warmUp(ctx, cfg.workload, cls, chk)
		cfg.spans.record("setup", 0, -1, t0, time.Now())
		setups = append(setups, time.Since(t0).Seconds())
		for _, r := range recs {
			out.attempted++
			if !r.ok {
				out.failed++
			}
		}
	}
	defer st.close()
	for i, cl := range cls {
		mode := fmt.Sprintf("status poll every %v", pollInterval)
		if cl.events {
			mode = "SSE events"
		}
		fmt.Printf("client %d waits through %s\n", i, mode)
	}

	before, err := fleetCounters(ctx, st)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds) * time.Second)
	var mu sync.Mutex
	var recs []jobRecord
	var wg sync.WaitGroup
	nextID := 0
	for _, cl := range cls {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				sp := src.next()
				mu.Lock()
				nextID++
				id := nextID
				mu.Unlock()
				// Traced and untraced jobs alternate, so drift during
				// the run falls on both alike.
				traced := cfg.trace && id%2 == 0
				var spans *tracer
				if traced {
					spans = cfg.spans
				}
				r := cl.run(ctx, sp, chk, spans, id)
				r.traced = traced
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	after, err := fleetCounters(ctx, st)
	if err != nil {
		return nil, err
	}

	var lat []float64
	var cells float64
	for _, r := range recs {
		out.attempted++
		if !r.ok {
			out.failed++
			continue
		}
		lat = append(lat, r.latency)
		cells += r.cells
	}
	fmt.Printf("latency ms: p10=%.1f p25=%.1f p50=%.1f p75=%.1f p90=%.1f max=%.1f over %d jobs\n",
		quantile(lat, 0.1), quantile(lat, 0.25), median(lat), quantile(lat, 0.75), quantile(lat, 0.9), quantile(lat, 1), len(lat))
	v := out.values
	v.set("cells_per_s", cells/elapsed, len(lat))
	v.set("jobs_per_s", float64(len(lat))/elapsed, len(lat))
	v.set("job_ms_p50", median(lat), len(lat))
	v.set("job_ms_p90", quantile(lat, 0.9), len(lat))
	v.set("setup_s", median(setups), len(setups))
	if cfg.trace {
		retries := 0
		for _, cl := range cls {
			retries += cl.retries
		}
		serveLayers(v, recs, before, after, retries)
		if err := buildLayers(cfg, v, recs); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// warmUp submits serve-small's 28 keys once, split across the clients, or
// one serve-cold job on a grid outside the drawn range. Each client probes
// the events endpoint on its first job.
func warmUp(ctx context.Context, workload string, cls []*client, chk *checker) []jobRecord {
	specs := smallKeys()
	if workload == "serve-cold" {
		specs = []serve.Spec{
			{Grid: "24x12x4", Solver: "mpdata", Steps: serveSteps, Processors: 1},
			{Grid: "24x12x4", Solver: "mpdata", Steps: serveSteps, Processors: 2},
		}
	}
	recs := make([]jobRecord, len(specs))
	var wg sync.WaitGroup
	for ci, cl := range cls {
		wg.Add(1)
		go func(ci int, cl *client) {
			defer wg.Done()
			for i := ci; i < len(specs); i += len(cls) {
				recs[i] = cl.run(ctx, specs[i], chk, nil, 0)
			}
		}(ci, cl)
	}
	wg.Wait()
	return recs
}

// fleetTotals are the router counters the fleet metrics difference.
type fleetTotals struct{ placements, steals, reroutes float64 }

// fleetCounters scrapes the router's /metrics (zero without a router).
func fleetCounters(ctx context.Context, st *stack) (fleetTotals, error) {
	if st.router == nil {
		return fleetTotals{}, nil
	}
	exp, err := serveclient.New(st.base).Metrics(ctx)
	if err != nil {
		return fleetTotals{}, fmt.Errorf("scrape router metrics: %w", err)
	}
	var t fleetTotals
	t.placements, _ = serveclient.MetricValue(exp, "fleet_placements_total")
	t.steals, _ = serveclient.MetricValue(exp, "fleet_steals_total")
	t.reroutes, _ = serveclient.MetricValue(exp, "fleet_reroutes_total")
	return t, nil
}

// serveLayers derives the serving per-layer metrics from the traced jobs:
// the client's submit round trip, the result's queue and run times, and the
// residual nothing else accounts for (tuner decide, lease or compile,
// reset, router relay and completion notification).
func serveLayers(v metrics, recs []jobRecord, before, after fleetTotals, retries int) {
	var sub, q, run, resid []float64
	bySolver := map[string][]float64{}
	var hits, attributed, total float64
	for _, r := range recs {
		if !r.ok || !r.traced {
			continue
		}
		sub = append(sub, r.submit)
		q = append(q, r.q)
		run = append(run, r.wall)
		bySolver[r.spec.Solver] = append(bySolver[r.spec.Solver], r.wall)
		resid = append(resid, r.latency-r.submit-r.q-r.wall)
		attributed += r.submit + r.q + r.wall
		total += r.latency
		if r.cacheHit {
			hits++
		}
	}
	n := len(sub)
	if n == 0 {
		return
	}
	v.set("client.submit_ms_p50", median(sub), n)
	v.set("serve.queue_ms_p50", median(q), n)
	v.set("serve.queue_ms_p90", quantile(q, 0.9), n)
	v.set("serve.run_ms_p50", median(run), n)
	for s, xs := range bySolver {
		v.set("serve.run_ms_p50."+s, median(xs), len(xs))
	}
	v.set("serve.residual_ms_p50", median(resid), n)
	v.set("serve.residual_ms_p90", quantile(resid, 0.9), n)
	v.set("serve.attributed_share", attributed/total, n)
	v.set("serve.cache_hit_ratio", hits/float64(n), n)
	if placed := after.placements - before.placements; placed > 0 {
		v.set("fleet.steal_ratio", (after.steals-before.steals)/placed, int(placed))
	}
	v.set("fleet.reroutes", after.reroutes-before.reroutes, 1)
	v.set("client.retries", float64(retries), 1)

	// Tracing overhead: traced against untraced client latency.
	var traced, plain []float64
	for _, r := range recs {
		if !r.ok {
			continue
		}
		if r.traced {
			traced = append(traced, r.latency)
		} else {
			plain = append(plain, r.latency)
		}
	}
	if len(plain) > 0 {
		v.set("trace.overhead_pct", 100*(median(traced)-median(plain))/median(plain), len(traced))
	}
}

// layerSamples bounds how many distinct specs the traced run re-compiles
// (all 28 serve-small keys) and how many cold classes it re-seeds.
const layerSamples = 28

// buildLayers times the layers the serving path hides inside a job, called
// directly: serve.NewSolverEngine on the run's distinct specs, and
// tune.SeedCandidates, with the allocation it costs, on the first classes
// serve-cold draws from the run's seed. Both serve workloads measure the
// seeding layer, so it is measured whichever of them runs.
func buildLayers(cfg runConfig, v metrics, recs []jobRecord) error {
	seen := map[serve.Spec]bool{}
	var build []float64
	for _, r := range recs {
		if !r.traced || seen[r.spec] || len(seen) == layerSamples {
			continue
		}
		seen[r.spec] = true
		ns, err := r.spec.Normalize()
		if err != nil {
			return err
		}
		t0 := time.Now()
		eng, err := serve.NewSolverEngine(ns)
		if err != nil {
			return fmt.Errorf("build %v: %w", ns.Key(), err)
		}
		d := time.Since(t0)
		eng.Close()
		cfg.spans.record("serve.NewSolverEngine", len(seen), -1, t0, t0.Add(d))
		build = append(build, ms(d))
	}
	if len(build) > 0 {
		v.set("serve.engine_build_ms_p50", median(build), len(build))
	}

	cold := &coldSource{r: rand.New(rand.NewSource(cfg.seed)), used: map[grid.Size]bool{}}
	var seed, alloc []float64
	for i := 0; i < layerSamples; i++ {
		ns, err := cold.next().Normalize()
		if err != nil {
			return err
		}
		entry, err := solver.Lookup(ns.Solver)
		if err != nil {
			return err
		}
		prog, err := entry.NewProgram(ns.SolverOptions())
		if err != nil {
			return err
		}
		m, err := topology.UV2000(ns.Processors)
		if err != nil {
			return err
		}
		class := tune.Class{Solver: ns.Solver, Domain: ns.Domain, Processors: ns.Processors,
			Variant: ns.Variant, Boundary: ns.Boundary, IORD: ns.IORD, Unlimited: ns.Unlimited}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		if _, err := tune.SeedCandidates(m, &prog.Program, class); err != nil {
			return fmt.Errorf("seed %v: %w", class, err)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		cfg.spans.record("tune.SeedCandidates", i, -1, t0, t0.Add(d))
		seed = append(seed, ms(d))
		alloc = append(alloc, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	}
	v.set("tune.seed_ms_p50", median(seed), len(seed))
	v.set("tune.seed_ms_p90", quantile(seed, 0.9), len(seed))
	v.set("tune.seed_alloc_mb_p50", median(alloc), len(alloc))
	return nil
}
