package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"islands/internal/solver"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees; a --trace 0 run
// reports every one of them. BENCHMARK.json declares the same list.
var endToEnd = []metricDef{
	{"cells_per_s", "cells/s"},
	{"jobs_per_s", "jobs/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the single-layer metrics a --trace 1 run reports. A layer a
// workload does not exercise reads 0 on that workload.
var perLayer = func() []metricDef {
	var ms []metricDef
	add := func(name, unit string) { ms = append(ms, metricDef{name, unit}) }
	for _, a := range arms {
		add("exec.step_ms."+a.name, "ms")
	}
	for _, a := range arms {
		add("exec.compile_ms."+a.name, "ms")
	}
	for _, a := range arms {
		add("exec.barrier_waits."+a.name, "count")
	}
	add("exec.halo_bytes.islands", "B")
	for _, a := range arms {
		add("sched.barrier_share."+a.name, "ratio")
	}
	add("exec.halo_ms.islands", "ms")
	for _, a := range arms {
		add("exec.imbalance_pct."+a.name, "%")
	}
	for g := 0; g < mpdataGroups; g++ {
		add(fmt.Sprintf("stencil.group_ns_per_cell.g%d", g), "ns/cell")
	}
	add("kernel.gflops", "Gflop/s")
	add("kernel.roof_share", "ratio")
	add("kernel.intensity_computed", "flop/B")
	add("kernel.bytes_per_cell_computed", "B/cell")
	add("host.copy_gbs", "GB/s")
	add("host.triad_gbs", "GB/s")
	add("host.fma_gflops", "Gflop/s")
	add("mpdata.reference_cells_per_s", "cells/s")
	add("client.submit_ms_p50", "ms")
	add("serve.queue_ms_p50", "ms")
	add("serve.queue_ms_p90", "ms")
	add("serve.run_ms_p50", "ms")
	for _, s := range solver.Names() {
		add("serve.run_ms_p50."+s, "ms")
	}
	add("serve.residual_ms_p50", "ms")
	add("serve.residual_ms_p90", "ms")
	add("serve.attributed_share", "ratio")
	add("serve.cache_hit_ratio", "ratio")
	add("fleet.steal_ratio", "ratio")
	add("fleet.reroutes", "count")
	add("client.retries", "count")
	add("tune.seed_ms_p50", "ms")
	add("tune.seed_ms_p90", "ms")
	add("tune.seed_alloc_mb_p50", "MiB")
	add("serve.engine_build_ms_p50", "ms")
	add("trace.overhead_pct", "%")
	return ms
}()

// mpdataGroups is the number of fused phase groups the compiled MPDATA
// schedule runs (17 stages in 7 groups).
const mpdataGroups = 7

// sample is one measured value and the number of samples it summarizes.
type sample struct {
	value float64
	n     int
}

// metrics collects a run's measured values by name; units come from
// endToEnd and perLayer.
type metrics map[string]sample

func (m metrics) set(name string, v float64, n int) {
	m[name] = sample{value: v, n: n}
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	values            metrics
}

// jsonMetric is one entry of the result line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// writeReport prints the human-readable metric table (value, unit, sample
// count and the failed share) and then the one-line JSON result. With trace
// the reported set is perLayer, otherwise endToEnd. A missing end-to-end
// metric is a benchmark bug and fails the run; a per-layer metric the
// workload does not exercise reads 0.
func writeReport(w io.Writer, o *outcome, trace bool) error {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		s, ok := o.values[d.name]
		if !ok && !trace {
			return fmt.Errorf("workload did not measure %s", d.name)
		}
		if math.IsNaN(s.value) || math.IsInf(s.value, 0) {
			return fmt.Errorf("metric %s is not finite", d.name)
		}
		res.Metrics[d.name] = jsonMetric{Value: s.value, Unit: d.unit}
		fmt.Fprintf(w, "%-34s %16.6g %-8s n=%d\n", d.name, s.value, d.unit, s.n)
	}
	share := 0.0
	if o.attempted > 0 {
		share = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "%-34s %16.6g %-8s n=%d\n", "failed_share", share, "ratio", o.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile returns the q-quantile (0..1) of xs, interpolating linearly
// between closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
