package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostInfo identifies the machine a result was measured on. Timings are
// comparable only between results with the same Fingerprint.
type hostInfo struct {
	CPUModel    string `json:"cpu_model"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	L3Bytes     int64  `json:"l3_bytes"`
	NUMANodes   int    `json:"numa_nodes"`
	GoVersion   string `json:"go_version"`
	Fingerprint string `json:"fingerprint"`
}

// runInfo identifies what was measured.
type runInfo struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	// Commit is the VCS revision stamped into the binary ("none" when the
	// build tree is not a repository); SourceDigest hashes the measured
	// program's sources, so results from an unstamped checkout can still be
	// matched to a tree.
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
}

// readHost reads the CPU model from /proc/cpuinfo and the L3 size and NUMA
// node count from /sys/devices/system/{cpu,node}. Unreadable entries stay
// zero or empty rather than failing the run.
func readHost() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		L3Bytes:    readL3Bytes(),
		NUMANodes:  countNUMANodes(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%d|%d|%d|%s",
		h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.L3Bytes, h.NUMANodes, h.GoVersion)))
	h.Fingerprint = hex.EncodeToString(sum[:6])
	return h
}

// readL3Bytes returns the size of cpu0's level-3 cache, 0 if none is listed.
func readL3Bytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level, err := os.ReadFile(filepath.Join(d, "level"))
		if err != nil || strings.TrimSpace(string(level)) != "3" {
			continue
		}
		size, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			return 0
		}
		return parseCacheSize(strings.TrimSpace(string(size)))
	}
	return 0
}

// parseCacheSize parses sysfs cache sizes such as "107520K" or "32M".
func parseCacheSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

// countNUMANodes counts /sys/devices/system/node/node<N>; a host without
// that directory is one node.
func countNUMANodes() int {
	nodes, _ := filepath.Glob("/sys/devices/system/node/node[0-9]*")
	if len(nodes) == 0 {
		return 1
	}
	return len(nodes)
}

// readRun fills the run record: the stamped VCS revision if any, and a
// digest of the program's Go sources and go.mod under root.
func readRun(root string) (commit, digest string) {
	commit = "none"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() && path != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(name, ".go") || name == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return commit, hex.EncodeToString(h.Sum(nil)[:8])
}

// peakRSSMiB returns the process's VmHWM from /proc/self/status in MiB.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// roofline is the host's measured roof: STREAM-style copy and triad
// bandwidth over arrays of at least 4x L3, and the scalar multiply-add rate
// with every CPU busy.
type roofline struct {
	copyGBs, triadGBs, fmaGflops float64
	arrayBytes                   int64
}

// roofReps is the number of timed passes per bandwidth kernel; like STREAM,
// the best pass is the reported rate.
const roofReps = 5

// measureRoofline runs the host microbenchmarks. Every kernel splits its
// range across all CPUs, one goroutine each.
func measureRoofline(l3 int64) roofline {
	bytes := max(4*l3, 420<<20)
	n := int(bytes / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	workers := runtime.NumCPU()
	parallel := func(fn func(lo, hi int)) time.Duration {
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				fn(lo, hi)
			}(n*w/workers, n*(w+1)/workers)
		}
		wg.Wait()
		return time.Since(t0)
	}
	// First touch from the workers that later stream the arrays.
	parallel(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i], b[i], c[i] = 1, 2, 0.5
		}
	})
	best := func(fn func(lo, hi int)) time.Duration {
		var min time.Duration
		for r := 0; r < roofReps; r++ {
			if d := parallel(fn); r == 0 || d < min {
				min = d
			}
		}
		return min
	}
	copyT := best(func(lo, hi int) { copy(b[lo:hi], a[lo:hi]) })
	const s = 0.5
	triadT := best(func(lo, hi int) {
		x, y, z := a[lo:hi], b[lo:hi], c[lo:hi]
		for i := range x {
			x[i] = y[i] + s*z[i]
		}
	})
	return roofline{
		copyGBs:    float64(16*n) / copyT.Seconds() / 1e9,
		triadGBs:   float64(24*n) / triadT.Seconds() / 1e9,
		fmaGflops:  measureFMA(workers, 500*time.Millisecond),
		arrayBytes: int64(8 * n),
	}
}

// fmaSink keeps the multiply-add chains observable so the compiler cannot
// drop them.
var fmaSink float64

// measureFMA returns the aggregate scalar multiply-add rate (2 flops each)
// of workers goroutines running eight independent chains for about d.
func measureFMA(workers int, d time.Duration) float64 {
	const block = 1 << 20
	var mu sync.Mutex
	var wg sync.WaitGroup
	var flops float64
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := [8]float64{1, 2, 3, 4, 5, 6, 7, 8}
			const m, add = 0.999999, 1e-6
			iters := 0
			for time.Since(t0) < d {
				for i := 0; i < block; i++ {
					x[0] = x[0]*m + add
					x[1] = x[1]*m + add
					x[2] = x[2]*m + add
					x[3] = x[3]*m + add
					x[4] = x[4]*m + add
					x[5] = x[5]*m + add
					x[6] = x[6]*m + add
					x[7] = x[7]*m + add
				}
				iters += block
			}
			mu.Lock()
			flops += float64(iters) * 16
			fmaSink += x[0] + x[1] + x[2] + x[3] + x[4] + x[5] + x[6] + x[7]
			mu.Unlock()
		}()
	}
	wg.Wait()
	return flops / time.Since(t0).Seconds() / 1e9
}
