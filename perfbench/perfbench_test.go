package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"

	"islands/internal/serve"
)

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json's workload and metric
// lists in step with what the benchmark reports.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	// Every gated workload must exist; serve-cold is runnable but not
	// gated (README.md says why).
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by the benchmark", w.Name)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, benchmark %s %s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty sample must give 0")
	}
}

// TestArmFailures plants a one-ulp difference in an arm's psi and a failed
// runner, and checks both count as failed steps.
func TestArmFailures(t *testing.T) {
	ref := []float64{1, 2, 3}
	ok := &armRun{psi: []float64{1, 2, 3}}
	if n := armFailures(ref, ok, 10); n != 0 {
		t.Fatalf("identical psi: %d failed", n)
	}
	bad := &armRun{psi: []float64{1, math.Nextafter(2, 3), 3}}
	if n := armFailures(ref, bad, 10); n != 10 {
		t.Fatalf("planted mismatch: %d failed, want 10", n)
	}
	broken := &armRun{psi: []float64{1, 2, 3}, failedSteps: 4}
	if n := armFailures(ref, broken, 10); n != 4 {
		t.Fatalf("failed runner: %d failed, want 4", n)
	}
}

// plantedEngine corrupts one key's checksums and fails another key's steps.
type plantedEngine struct {
	serve.Engine
	corrupt, fail bool
}

func (e plantedEngine) Checksums() serve.Checksums {
	c := e.Engine.Checksums()
	if e.corrupt {
		c.Sum = math.Nextafter(c.Sum, math.Inf(1))
	}
	return c
}

func (e plantedEngine) Step() error {
	if e.fail {
		return errors.New("planted step failure")
	}
	return e.Engine.Step()
}

// TestServeFailedShareRises runs serve-small briefly on a healthy stack and
// on one with a planted checksum mismatch and a planted failing job: the
// healthy run fails nothing, the planted one fails jobs.
func TestServeFailedShareRises(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving stack")
	}
	cfg := runConfig{workload: "serve-small", seed: 7, seconds: 1}
	healthy, err := runServe(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if healthy.failed != 0 || healthy.attempted == 0 {
		t.Fatalf("healthy run: %d of %d failed", healthy.failed, healthy.attempted)
	}
	planted := func(ns serve.NormSpec) (serve.Engine, error) {
		eng, err := serve.NewSolverEngine(ns)
		if err != nil {
			return nil, err
		}
		return plantedEngine{Engine: eng,
			corrupt: ns.Solver == "heat" && ns.StrategyName() == "original",
			fail:    ns.Solver == "life" && ns.StrategyName() == "(3+1)D",
		}, nil
	}
	bad, err := runServe(cfg, planted)
	if err != nil {
		t.Fatal(err)
	}
	share := func(o *outcome) float64 { return float64(o.failed) / float64(o.attempted) }
	// Warm-up alone runs each planted key once per set-up repetition.
	if bad.failed < 2*setupReps || share(bad) <= share(healthy) {
		t.Fatalf("planted run: %d of %d failed (share %.3f), healthy share %.3f",
			bad.failed, bad.attempted, share(bad), share(healthy))
	}
}
