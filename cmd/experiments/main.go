// Command experiments regenerates the paper's evaluation (§4): every
// table and figure, on the ten synthetic stand-ins for SPECInt2000/95.
//
// Usage:
//
//	experiments [-exp all|1|2|3|4|5|6|7|8|15|16|17|18|sequitur|telemetry|parallel|memory|explain|queries|snapshot|planner|qtrace] [-workload name] [-scale n]
//	            [-telemetry-out BENCH_telemetry.json] [-parallel-out BENCH_parallel.json]
//	            [-memory-out BENCH_memory.json] [-explain-out BENCH_explain.json]
//	            [-queries-out BENCH_queries.json] [-snapshot-out BENCH_snapshot.json]
//	            [-planner-out BENCH_planner.json] [-qtrace-out BENCH_qtrace.json]
//
// Numbers 1-8 are tables, 15-18 figures, matching the paper's numbering.
// -scale multiplies each workload's default input size. The telemetry
// experiment builds every workload with metrics attached and writes
// per-benchmark graph sizes, per-optimization label-elimination counts,
// and slice times to -telemetry-out. The parallel experiment compares the
// pipelined build (one trace decode feeding the FP and OPT builders, each
// through its own trace.Async worker) and the batched 25-criteria query
// paths against their sequential GOMAXPROCS=1 baselines and writes
// per-workload speedups to -parallel-out (see docs/PERFORMANCE.md). The
// memory experiment builds each workload's FP and OPT graphs with
// delta-varint label blocks, compares their label bytes with the
// flat-pair size model (16 B a pair, plus FP's 4 B aux column), checks
// every slice against LP's, and writes resident-bytes records to
// -memory-out.
// The explain experiment runs every criterion as an observed query on
// FP, OPT, and LP, and writes the aggregate explicit-vs-inferred edge
// resolution breakdown (the measurable counterpart of the paper's
// Table 4 label-elimination accounting; see docs/EXPLAIN.md) to
// -explain-out. The queries experiment replays the interactive usage
// pattern (batched criteria, repeat cached queries, observed queries)
// through each backend's QueryEngine with the query flight recorder
// attached, validates every audit record, and writes per-workload
// latency quantiles and cache statistics to -queries-out (see
// docs/OBSERVABILITY.md). The planner experiment measures the
// re-execution backend's rare-query path against the cheapest
// graph-build path and the cost-based planner's regret on a criterion
// stream, writing both to -planner-out (see docs/PLANNER.md). The
// qtrace experiment replays the same interactive pattern with the
// per-query causal tracer attached, checks the tail-based sampler
// retained exactly the deterministic 1-in-N prediction with well-formed
// span trees, and writes capture rates and the traced-vs-plain overhead
// ratio to -qtrace-out (see docs/OBSERVABILITY.md "Per-query tracing").
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dynslice/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, 1-8 (tables), 15-18 (figures), sequitur, ablation, forward, telemetry, parallel, memory, explain, queries, snapshot, planner, qtrace")
	workload := flag.String("workload", "", "restrict to one workload (e.g. 164.gzip or gzip)")
	scale := flag.Int64("scale", 1, "input-size multiplier for every workload")
	telemetryOut := flag.String("telemetry-out", "BENCH_telemetry.json", "output file for -exp telemetry")
	parallelOut := flag.String("parallel-out", "BENCH_parallel.json", "output file for -exp parallel")
	memoryOut := flag.String("memory-out", "BENCH_memory.json", "output file for -exp memory")
	explainOut := flag.String("explain-out", "BENCH_explain.json", "output file for -exp explain")
	queriesOut := flag.String("queries-out", "BENCH_queries.json", "output file for -exp queries")
	snapshotOut := flag.String("snapshot-out", "BENCH_snapshot.json", "output file for -exp snapshot")
	plannerOut := flag.String("planner-out", "BENCH_planner.json", "output file for -exp planner")
	qtraceOut := flag.String("qtrace-out", "BENCH_qtrace.json", "output file for -exp qtrace")
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
		run("telemetry", func() error { return bench.RunTelemetry(w, wls, *telemetryOut) })
	}
	if want("parallel") {
		run("parallel", func() error { return bench.RunParallel(w, wls, *parallelOut) })
	}
	if want("memory") {
		run("memory", func() error { return bench.RunMemory(w, wls, *memoryOut) })
	}
	if want("explain") {
		run("explain", func() error { return bench.RunExplain(w, wls, *explainOut) })
	}
	if want("queries") {
		run("queries", func() error { return bench.RunQueries(w, wls, *queriesOut) })
	}
	if want("snapshot") {
		run("snapshot", func() error { return bench.RunSnapshot(w, wls, *snapshotOut) })
	}
	if want("planner") {
		run("planner", func() error { return bench.RunPlanner(w, wls, *plannerOut) })
	}
	if want("qtrace") {
		run("qtrace", func() error { return bench.RunQtrace(w, wls, *qtraceOut) })
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
