// Command experiments regenerates the paper's evaluation (§4): every
// table and figure, on the ten synthetic stand-ins for SPECInt2000/95.
//
// Usage:
//
//	experiments [-exp all|1|2|3|4|5|6|7|8|15|16|17|18|sequitur|telemetry|parallel|memory|explain|queries|snapshot|planner|qtrace] [-workload name] [-scale n]
//	            [-out dir]
//
// Numbers 1-8 are tables, 15-18 figures, matching the paper's numbering.
// -scale multiplies each workload's default input size. Each of the
// eight measurement experiments writes one artifact, BENCH_<exp>.json,
// into -out (default: the current directory):
//
//   - telemetry builds every workload with metrics attached: per-benchmark
//     graph sizes, per-optimization label-elimination counts, and slice
//     times.
//   - parallel answers the 25 criteria by one batched SliceAll and by a
//     per-criterion loop, on OPT and on LP, and records the batch
//     speedups (see docs/PERFORMANCE.md).
//   - memory builds each workload's FP and OPT graphs with delta-varint
//     label blocks, compares their label bytes with the flat-pair size
//     model (16 B a pair, plus FP's 4 B aux column), times each build,
//     and checks every slice against LP's.
//   - explain runs every criterion as an observed query on FP, OPT and
//     LP: the explicit-vs-inferred edge resolution breakdown, the
//     measurable counterpart of the paper's Table 4 label-elimination
//     accounting (see docs/EXPLAIN.md).
//   - queries replays the interactive usage pattern (batched criteria,
//     repeat cached queries, observed queries) through each backend's
//     QueryEngine with the query flight recorder attached, validates
//     every audit record, and records latency quantiles and cache
//     statistics (see docs/OBSERVABILITY.md).
//   - snapshot times loading the persistent graph image against
//     rebuilding from the trace, and records the image's size.
//   - planner times one cold criterion answered by re-execution, counts
//     the segments it re-executes, compares it with the cheapest
//     graph-build path, and records the cost-based planner's regret on
//     a criterion stream (see docs/PLANNER.md).
//   - qtrace replays the interactive pattern with the per-query causal
//     tracer attached, checks that the tail-based sampler retained
//     exactly the deterministic 1-in-N prediction with well-formed span
//     trees, and records capture rates and the traced-vs-plain overhead
//     ratio (see docs/OBSERVABILITY.md "Per-query tracing").
//
// Each experiment fails (exit status 1) on the hard checks its Run*
// function documents, such as a slice that differs between backends.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dynslice/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, 1-8 (tables), 15-18 (figures), sequitur, ablation, forward, telemetry, parallel, memory, explain, queries, snapshot, planner, qtrace")
	workload := flag.String("workload", "", "restrict to one workload (e.g. 164.gzip or gzip)")
	scale := flag.Int64("scale", 1, "input-size multiplier for every workload")
	outDir := flag.String("out", ".", "directory for the BENCH_<exp>.json artifacts")
	flag.Parse()

	wls := bench.Workloads()
	if *workload != "" {
		w, ok := bench.ByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
			os.Exit(2)
		}
		wls = []bench.Workload{w}
	}
	if *scale > 1 {
		for i := range wls {
			wls[i].Input = append([]int64{defaultSize(wls[i].Name) * *scale}, wls[i].Input...)
		}
	}

	w := os.Stdout
	out := func(exp string) string { return filepath.Join(*outDir, "BENCH_"+exp+".json") }
	run := func(name string, f func() error) {
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}
	sel := strings.Split(*exp, ",")
	want := func(k string) bool {
		for _, s := range sel {
			if s == "all" || s == k {
				return true
			}
		}
		return false
	}
	if want("1") {
		run("table1", func() error { return bench.RunTable1(w, wls) })
	}
	if want("2") {
		run("table2", func() error { return bench.RunTable2(w, wls) })
	}
	if want("15") {
		run("fig15", func() error { return bench.RunFig15(w, wls) })
	}
	if want("16") {
		run("fig16", func() error { return bench.RunFig16(w, wls) })
	}
	if want("17") {
		run("fig17", func() error { return bench.RunFig17(w, wls, 4) })
	}
	if want("3") {
		run("table3", func() error { return bench.RunTable3(w, wls) })
	}
	if want("4") {
		run("table4", func() error { return bench.RunTable4(w, wls) })
	}
	if want("18") {
		run("fig18", func() error { return bench.RunFig18(w, wls, 25) })
	}
	if want("5") {
		run("table5", func() error { return bench.RunTable5(w, wls) })
	}
	if want("6") {
		run("table6", func() error { return bench.RunTable6(w, wls) })
	}
	if want("7") {
		run("table7", func() error { return bench.RunTable7(w, wls) })
	}
	if want("8") {
		run("table8", func() error { return bench.RunTable8(w, wls) })
	}
	if want("sequitur") {
		run("sequitur", func() error { return bench.RunSequitur(w, wls) })
	}
	if want("ablation") {
		run("ablation-solo", func() error { return bench.RunAblationSolo(w, wls) })
		run("ablation-paths", func() error { return bench.RunAblationPathThreshold(w, wls) })
		run("ablation-hybrid", func() error { return bench.RunAblationHybrid(w, wls) })
	}
	if want("forward") {
		run("forward", func() error { return bench.RunForwardComparison(w, wls) })
	}
	if want("telemetry") {
		run("telemetry", func() error { return bench.RunTelemetry(w, wls, out("telemetry")) })
	}
	if want("parallel") {
		run("parallel", func() error { return bench.RunParallel(w, wls, out("parallel")) })
	}
	if want("memory") {
		run("memory", func() error { return bench.RunMemory(w, wls, out("memory")) })
	}
	if want("explain") {
		run("explain", func() error { return bench.RunExplain(w, wls, out("explain")) })
	}
	if want("queries") {
		run("queries", func() error { return bench.RunQueries(w, wls, out("queries")) })
	}
	if want("snapshot") {
		run("snapshot", func() error { return bench.RunSnapshot(w, wls, out("snapshot")) })
	}
	if want("planner") {
		run("planner", func() error { return bench.RunPlanner(w, wls, out("planner")) })
	}
	if want("qtrace") {
		run("qtrace", func() error { return bench.RunQtrace(w, wls, out("qtrace")) })
	}
}

// defaultSize mirrors each workload's built-in default input value so
// -scale can multiply it.
func defaultSize(name string) int64 {
	switch {
	case strings.Contains(name, "gzip"):
		return 900
	case strings.Contains(name, "bzip2"):
		return 2600
	case strings.Contains(name, "vortex"):
		return 2200
	case strings.Contains(name, "parser"):
		return 260
	case strings.Contains(name, "mcf"):
		return 1400
	case strings.Contains(name, "twolf"):
		return 210
	case strings.Contains(name, "perl"):
		return 1700
	case strings.Contains(name, "li"):
		return 55
	case strings.Contains(name, "gcc"):
		return 30
	case strings.Contains(name, "go"):
		return 120
	}
	return 0
}
