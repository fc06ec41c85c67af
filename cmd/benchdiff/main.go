// Command benchdiff compares the current benchmark JSON artifacts
// against checked-in baselines and fails on regressions — the CI gate
// behind `make bench-check`.
//
// Usage:
//
//	benchdiff [-baseline bench/baselines] [-current .] [-tolerance 0.20]
//
// Both directories are expected to hold the BENCH_*.json files written
// by cmd/experiments, one record per workload. For every workload
// present in BOTH the baseline and the current artifact, benchdiff
// compares the key metrics, each a quantity of one layer:
//
//	BENCH_parallel.json   lp_batch_speedup, opt_batch_speedup  (higher is better)
//	BENCH_memory.json     fp/opt compact_resident_bytes,
//	                      fp/opt compact_build_ms              (lower is better)
//	BENCH_telemetry.json  slice_avg_ms.{FP,OPT,LP}             (lower is better)
//	BENCH_snapshot.json   load_ms, file_bytes                  (lower is better)
//	BENCH_planner.json    reexec_ms, reexec_seg_scans,
//	                      planner_regret                       (lower is better)
//	BENCH_queries.json    cache_hit_rate                       (higher is better)
//	                      instances.{OPT,LP}                   (lower is better)
//	BENCH_explain.json    opt.inferred_pct                     (higher is better)
//	                      opt/lp slice_ms                      (lower is better)
//	BENCH_qtrace.json     retained_rate (deterministic sampler) (lower is better)
//	                      traced_overhead_ratio                (lower is better)
//
// A ratio of two layers' times measured in one run (a snapshot's load
// over its build, re-execution over a graph build) is no gated row: a
// gain in the denominator reads as a regression. The runners check such
// ratios against their own floors instead.
//
// A metric family (one spec, all workloads) regresses when the MEDIAN
// of its per-workload deltas moves in the bad direction by more than
// its allowance: -tolerance (a ratio; 0.20 means 20%) scaled by the
// metric's noise factor — 1x for deterministic counts, 1.5x for
// speedup ratios, 2.5x for raw wall times. Gating the median rather
// than individual workloads is what makes timing metrics usable at
// all: single-workload wall times flap 50%+ run-to-run on a loaded
// machine, but that noise is uncorrelated across the ten workloads,
// while a real regression shifts all of them. Per-workload rows are
// still printed for inspection. Baselines are machine-dependent and
// should be regenerated on the machine that runs the gate
// (`make bench-baseline`). Missing files, workloads or fields are
// reported and skipped, not failed: a partial run gates what it can.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricSpec names one guarded metric: a dot path into each workload's
// JSON object, the direction in which change is a regression, and a
// noise factor scaling the base tolerance (timing metrics flap more
// than counts).
type metricSpec struct {
	path         string // e.g. "fp.compact_resident_bytes" or "slice_avg_ms.FP"
	higherBetter bool
	noise        float64 // tolerance multiplier; 0 means 1
}

// specs lists the gated metrics artifact by artifact, in report order.
var specs = []struct {
	file  string
	specs []metricSpec
}{
	{"BENCH_parallel.json", []metricSpec{
		{path: "lp_batch_speedup", higherBetter: true, noise: 1.5},
		{path: "opt_batch_speedup", higherBetter: true, noise: 1.5},
	}},
	{"BENCH_memory.json", []metricSpec{
		{path: "fp.compact_resident_bytes"},
		{path: "opt.compact_resident_bytes"},
		{path: "fp.compact_build_ms", noise: 2.5},
		{path: "opt.compact_build_ms", noise: 2.5},
	}},
	{"BENCH_telemetry.json", []metricSpec{
		{path: "slice_avg_ms.FP", noise: 2.5},
		{path: "slice_avg_ms.OPT", noise: 2.5},
		{path: "slice_avg_ms.LP", noise: 2.5},
	}},
	{"BENCH_snapshot.json", []metricSpec{
		{path: "load_ms", noise: 2.5},
		{path: "file_bytes"},
	}},
	{"BENCH_planner.json", []metricSpec{
		{path: "reexec_ms", noise: 2.5},
		{path: "reexec_seg_scans"},
		{path: "planner_regret", noise: 1.5},
	}},
	{"BENCH_queries.json", []metricSpec{
		{path: "cache_hit_rate", higherBetter: true},
		// Traversal instances, not p99 latency: the p99 comes from
		// power-of-two buckets, so one workload's crossing reads ±50%
		// or more, and a 2.5x allowance still failed runs of unchanged
		// code.
		{path: "instances.OPT"},
		{path: "instances.LP"},
	}},
	{"BENCH_explain.json", []metricSpec{
		{path: "opt.inferred_pct", higherBetter: true},
		{path: "opt.slice_ms", noise: 2.5},
		{path: "lp.slice_ms", noise: 2.5},
	}},
	{"BENCH_qtrace.json", []metricSpec{
		// The bench's retention policy is the deterministic sampler
		// alone, so retained_rate is noise-free: any drift means the
		// tail-sampling decision changed.
		{path: "retained_rate"},
		{path: "traced_overhead_ratio", noise: 2.5},
	}},
}

func main() {
	baselineDir := flag.String("baseline", "bench/baselines", "directory with baseline BENCH_*.json files")
	currentDir := flag.String("current", ".", "directory with freshly generated BENCH_*.json files")
	tolerance := flag.Float64("tolerance", 0.20, "allowed regression ratio before failing (0.20 = 20%)")
	flag.Parse()

	regressed, compared := compare(os.Stdout, *baselineDir, *currentDir, *tolerance)
	switch {
	case len(compared) == 0:
		fmt.Println("benchdiff: nothing compared — generate baselines with `make bench-baseline`")
	case len(regressed) > 0:
		fmt.Printf("\nbenchdiff: %d metric famil(ies) regressed beyond %.0f%%\n", len(regressed), *tolerance*100)
		os.Exit(1)
	default:
		fmt.Printf("\nbenchdiff: %d metric families within tolerance\n", len(compared))
	}
}

// compare diffs every artifact in curDir against its baseline in baseDir,
// printing per-workload rows and per-family medians to w. It returns the
// families, named "file path", whose median delta moved the bad way by
// more than their allowance, and every family it compared.
func compare(w io.Writer, baseDir, curDir string, tolerance float64) (regressed, compared []string) {
	for _, art := range specs {
		base, ok := loadBench(filepath.Join(baseDir, art.file))
		if !ok {
			fmt.Fprintf(w, "skip %s: no baseline\n", art.file)
			continue
		}
		cur, ok := loadBench(filepath.Join(curDir, art.file))
		if !ok {
			fmt.Fprintf(w, "skip %s: no current artifact\n", art.file)
			continue
		}
		fmt.Fprintf(w, "%s (tolerance %.0f%%)\n", art.file, tolerance*100)
		fmt.Fprintf(w, "  %-12s %-28s %14s %14s %8s\n", "workload", "metric", "baseline", "current", "delta")
		badDeltas := make(map[string][]float64) // spec path -> per-workload bad-direction deltas
		for _, name := range sortedNames(base) {
			bw, cw := base[name], cur[name]
			if cw == nil {
				fmt.Fprintf(w, "  %-12s missing from current artifact — skipped\n", name)
				continue
			}
			for _, spec := range art.specs {
				bv, bok := lookup(bw, spec.path)
				cv, cok := lookup(cw, spec.path)
				if !bok || !cok {
					continue
				}
				delta := ratioDelta(bv, cv)
				bad := delta
				if spec.higherBetter {
					bad = -delta
				}
				badDeltas[spec.path] = append(badDeltas[spec.path], bad)
				fmt.Fprintf(w, "  %-12s %-28s %14.3f %14.3f %+7.1f%%\n",
					name, spec.path, bv, cv, delta*100)
			}
		}
		for _, spec := range art.specs {
			bads := badDeltas[spec.path]
			if len(bads) == 0 {
				continue
			}
			family := art.file + " " + spec.path
			compared = append(compared, family)
			med := median(bads)
			allow := tolerance
			if spec.noise > 0 {
				allow *= spec.noise
			}
			sign := 1.0
			if spec.higherBetter {
				sign = -1 // report in the metric's own direction
			}
			status := ""
			if med > allow {
				status = "  <-- REGRESSION"
				regressed = append(regressed, family)
			}
			fmt.Fprintf(w, "  median over %d workloads: %-28s %+7.1f%% (allow %.0f%%)%s\n",
				len(bads), spec.path, sign*med*100, allow*100, status)
		}
	}
	return regressed, compared
}

// loadBench reads one BENCH_*.json artifact (an array of per-workload
// objects with a "name" field) into a map keyed by workload.
func loadBench(path string) (map[string]map[string]any, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var arr []map[string]any
	if err := json.Unmarshal(data, &arr); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", path, err)
		return nil, false
	}
	out := make(map[string]map[string]any, len(arr))
	for _, w := range arr {
		if name, ok := w["name"].(string); ok {
			out[name] = w
		}
	}
	return out, len(out) > 0
}

// lookup resolves a dot path ("fp.compact_resident_bytes") to a number.
func lookup(obj map[string]any, path string) (float64, bool) {
	parts := strings.Split(path, ".")
	for _, p := range parts[:len(parts)-1] {
		sub, ok := obj[p].(map[string]any)
		if !ok {
			return 0, false
		}
		obj = sub
	}
	v, ok := obj[parts[len(parts)-1]].(float64)
	return v, ok
}

// ratioDelta is the relative change from base to cur; +0.25 means cur
// is 25% larger.
func ratioDelta(base, cur float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return 1
	}
	return (cur - base) / base
}

// median of a non-empty slice (sorts a copy; even length averages the
// two middle values).
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedNames(m map[string]map[string]any) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
