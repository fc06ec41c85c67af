// Command slicer compiles and runs a MiniC program, then answers dynamic
// slicing queries against it.
//
// Usage:
//
//	slicer -src prog.mc [-input 1,2,3] [-algo opt|fp|lp] [-var g] [-addr n]
//	       [-vars a,b,c] [-ir] [-stats] [-repl]
//	       [-explain line|sID] [-metrics out.json] [-timeline out.json]
//	       [-pprof localhost:6060] [-querylog out.jsonl] [-slowms n]
//	       [-qtrace out.jsonl] [-qtrace-slow ms] [-qtrace-sample n]
//	       [-snapshot] [-snapshot-dir dir] [-plan auto|fp|lp|opt|reexec|forward]
//
// With -var (a global variable) or -addr (a raw address), the tool prints
// the dynamic slice of that location's final value: the source lines it
// transitively depends on, via data and control dependences actually
// exercised in this run. -vars takes a comma-separated list of globals
// and answers them as ONE batched query (shared backward traversal; see
// docs/PERFORMANCE.md).
//
// -explain runs the query as an observed traversal and additionally
// prints the per-query profile (nodes visited, explicit vs inferred edge
// resolutions per optimization family) and the dependence-path witness —
// the concrete chain criterion ← dep ← … ← stmt — for the statement
// named by its argument (a source line, or s<ID>). See docs/EXPLAIN.md.
//
// -metrics writes a telemetry snapshot (phase spans, algorithm counters;
// see docs/OBSERVABILITY.md) as JSON when the tool exits. -timeline
// writes the span tree and pipeline-worker activity as Chrome
// trace-event JSON for chrome://tracing or Perfetto.
//
// -querylog appends one JSONL audit record per slicing query (the query
// flight recorder: query ID, backend, latency, cache attribution,
// result size; see docs/OBSERVABILITY.md). -slowms N additionally logs
// queries slower than N milliseconds as structured slog warnings on
// stderr.
//
// -qtrace turns on per-query causal tracing (docs/OBSERVABILITY.md
// "Per-query tracing"): every query gets a span tree — planner decision,
// fallback-ladder rungs with demotion error classes, backend execution,
// snapshot load — and the tail-based sampler streams the retained ones
// (slow, errored, demoted, cache-missed, or 1-in-N sampled) to the given
// JSONL file. -qtrace-slow and -qtrace-sample tune the policy; with
// -timeline, retained traces also render onto the Chrome trace-event
// timeline; with -pprof, /debug/qtrace serves the retained ring live.
//
// -plan selects how queries are dispatched. "auto" sends every query
// through the cost-based planner (docs/PLANNER.md): the cheapest
// backend for the query's shape answers, graphs are built lazily only
// when the planner decides they pay for themselves, and the forward
// and re-execution backends join the candidate set. Any other value
// pins one backend — a superset of -algo that adds reexec (answer by
// resuming the interpreter from checkpoints) and forward (precomputed
// forward sets). -plan overrides -algo when both are given.
//
// -snapshot turns on the persistent graph cache: the OPT graph is loaded
// from a content-addressed on-disk image when a matching one exists
// (skipping program execution entirely — LP is unavailable in that case,
// and FP is built by re-running the program if asked for) and saved
// after a fresh build. -snapshot-dir overrides the
// cache directory. See docs/PERFORMANCE.md "Snapshot format".
//
// -pprof serves an explicit-mux HTTP server for the life of the process
// — most useful together with -repl:
//
//	/debug/pprof       net/http/pprof profiles
//	/debug/vars        expvar (live registry under the "dynslice" var)
//	/debug/queries     the recent-query ring as JSON
//	/debug/qtrace      the retained causal-trace ring (summaries;
//	                   /debug/qtrace/<id> for one full span tree)
//	/metrics           Prometheus text exposition: every registry
//	                   counter/gauge/histogram plus per-backend query
//	                   latency histograms (with trace-id exemplars) and
//	                   cache/batch series
package main

import (
	"bufio"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	slicer "dynslice"
	"dynslice/internal/ir"
	"dynslice/internal/slicing/explain"
	"dynslice/internal/telemetry"
	"dynslice/internal/telemetry/qtrace"
	"dynslice/internal/telemetry/querylog"
	"dynslice/internal/telemetry/stats"
)

func main() {
	srcPath := flag.String("src", "", "MiniC source file (required)")
	inputCSV := flag.String("input", "", "comma-separated input() values")
	algo := flag.String("algo", "opt", "slicing algorithm: opt, fp, or lp")
	varName := flag.String("var", "", "slice on the final value of this global variable")
	varsCSV := flag.String("vars", "", "comma-separated globals: answer all of them as one batched query")
	addr := flag.Int64("addr", -1, "slice on the final definition of this address")
	dumpIR := flag.Bool("ir", false, "dump the lowered IR and exit")
	showStats := flag.Bool("stats", false, "print graph statistics")
	repl := flag.Bool("repl", false, "interactive mode: read criteria from stdin (var NAME | addr N | algo opt|fp|lp | quit)")
	metricsOut := flag.String("metrics", "", "write a telemetry JSON snapshot to this file on exit")
	explainSpec := flag.String("explain", "", "with -var/-addr: print a dependence-path witness for this slice statement (source line number, or s<ID> for a statement id) plus the query's traversal profile")
	timelineOut := flag.String("timeline", "", "write a Chrome trace-event timeline (phase spans + pipeline worker activity) to this file on exit; open in chrome://tracing or Perfetto")
	pprofAddr := flag.String("pprof", "", "serve pprof, expvar, /metrics (Prometheus), and /debug/queries on this address (e.g. localhost:6060)")
	querylogOut := flag.String("querylog", "", "append one JSONL audit record per slicing query to this file")
	slowMS := flag.Int("slowms", 0, "log queries slower than this many milliseconds as slog warnings on stderr")
	qtraceOut := flag.String("qtrace", "", "per-query causal tracing: stream retained (tail-sampled) span trees to this JSONL file")
	qtraceSlowMS := flag.Int("qtrace-slow", 25, "qtrace: retain traces of queries slower than this many milliseconds (0 disables the slow trigger)")
	qtraceSample := flag.Int("qtrace-sample", 128, "qtrace: additionally retain a deterministic 1-in-N sample of all queries (0 disables sampling)")
	useSnap := flag.Bool("snapshot", false, "use the persistent graph cache: load the OPT graph from a content-addressed snapshot when one matches (skipping execution entirely), and save it after a fresh build")
	snapDir := flag.String("snapshot-dir", "", "snapshot cache directory (default: the per-user cache dir)")
	planMode := flag.String("plan", "", "query dispatch: auto (cost-based planner picks the backend per query) or a pinned backend: fp, lp, opt, reexec, forward (overrides -algo)")
	flag.Parse()

	if *srcPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	var reg *telemetry.Registry
	if *metricsOut != "" || *pprofAddr != "" || *timelineOut != "" {
		reg = telemetry.New()
		reg.PublishExpvar("dynslice")
	}
	// The query flight recorder and workload statistics back -querylog,
	// -slowms, and the -pprof server's /metrics and /debug/queries.
	var qlog *querylog.Log
	var qstats *stats.Recorder
	if *querylogOut != "" || *slowMS > 0 || *pprofAddr != "" {
		qlog = querylog.New(512)
		qstats = stats.New()
	}
	if *querylogOut != "" {
		qf, err := os.Create(*querylogOut)
		check(err)
		defer func() {
			if err := qlog.SinkErr(); err != nil {
				fmt.Fprintln(os.Stderr, "slicer: querylog:", err)
			}
			qf.Close()
		}()
		qlog.SetSink(qf)
	}
	if *slowMS > 0 {
		qlog.SetSlowQuery(time.Duration(*slowMS)*time.Millisecond,
			slog.New(slog.NewTextHandler(os.Stderr, nil)))
	}
	// Per-query causal tracing backs -qtrace and the -pprof server's
	// /debug/qtrace endpoints.
	var qtr *qtrace.Tracer
	if *qtraceOut != "" || *pprofAddr != "" {
		pol := qtrace.DefaultPolicy()
		pol.Slow = time.Duration(*qtraceSlowMS) * time.Millisecond
		pol.SampleN = *qtraceSample
		qtr = qtrace.New(0, pol)
	}
	if *qtraceOut != "" {
		tf, err := os.Create(*qtraceOut)
		check(err)
		defer func() {
			if err := qtr.SinkErr(); err != nil {
				fmt.Fprintln(os.Stderr, "slicer: qtrace:", err)
			}
			tf.Close()
		}()
		qtr.SetSink(tf)
	}
	if *timelineOut != "" {
		reg.AttachTimeline(telemetry.NewTimeline())
	}
	if *metricsOut != "" || *timelineOut != "" {
		// Registered as both a defer and the check() exit hook: error
		// exits are exactly when the interp.err.* counters matter.
		metrics, timeline := *metricsOut, *timelineOut
		onExit = func() {
			if metrics != "" {
				if err := reg.WriteFile(metrics); err != nil {
					fmt.Fprintln(os.Stderr, "slicer: metrics:", err)
				} else {
					fmt.Printf("wrote metrics to %s\n", metrics)
				}
			}
			if timeline != "" {
				// Retained causal traces render onto the same timeline —
				// each query's span tree stacks on its own trace-id row.
				qtr.WriteTimeline(reg.Timeline())
				if err := reg.Timeline().WriteFile(timeline); err != nil {
					fmt.Fprintln(os.Stderr, "slicer: timeline:", err)
				} else {
					fmt.Printf("wrote timeline to %s\n", timeline)
				}
			}
		}
		defer onExit()
	}
	if *pprofAddr != "" {
		// Listen synchronously so a bad address fails the run instead of
		// printing from a goroutine after startup.
		ln, err := net.Listen("tcp", *pprofAddr)
		check(err)
		srv := &http.Server{
			Handler:           debugMux(reg, qlog, qstats, qtr),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "slicer: pprof:", err)
			}
		}()
		fmt.Printf("debug server listening on http://%s (pprof at /debug/pprof, vars at /debug/vars, queries at /debug/queries, traces at /debug/qtrace, Prometheus at /metrics)\n", ln.Addr())
	}
	src, err := os.ReadFile(*srcPath)
	check(err)
	prog, err := slicer.CompileWith(string(src), reg)
	check(err)
	if *dumpIR {
		fmt.Print(prog.DumpIR())
		return
	}

	var input []int64
	if *inputCSV != "" {
		for _, f := range strings.Split(*inputCSV, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			check(err)
			input = append(input, v)
		}
	}
	switch *planMode {
	case "", "auto", "fp", "lp", "opt", "reexec", "forward":
	default:
		check(fmt.Errorf("unknown -plan mode %q (use auto, fp, lp, opt, reexec, or forward)", *planMode))
	}
	rec, err := prog.Record(slicer.RunOptions{
		Input: input, Telemetry: reg,
		QueryLog: qlog, QueryStats: qstats, QueryTrace: qtr,
		// The forward index only exists if computed during the run, so
		// build it whenever the forward backend could be asked for.
		WithForward: *planMode == "auto" || *planMode == "forward",
		Snapshot:    slicer.SnapshotOptions{Dir: *snapDir, Read: *useSnap, Write: *useSnap},
	})
	check(err)
	defer rec.Close()

	if rec.Source() == "snapshot" {
		fmt.Printf("loaded graphs from snapshot cache; recorded run: %d statements; output: %v; main returned %d\n",
			rec.Steps, rec.Output, rec.Return)
	} else {
		fmt.Printf("executed %d statements; output: %v; main returned %d\n",
			rec.Steps, rec.Output, rec.Return)
	}
	if *showStats {
		st := rec.Stats()
		fmt.Printf("graphs: FP %d labels (%.2f MB), OPT %d labels (%.2f MB), %d static edges, %d path nodes\n",
			st.FPLabelPairs, float64(st.FPSizeBytes)/(1<<20),
			st.OPTLabelPairs, float64(st.OPTSizeBytes)/(1<<20),
			st.StaticEdges, st.PathNodes)
	}

	// -plan auto answers through the planned engine (no pinned backend);
	// any other -plan value pins a backend, overriding -algo.
	auto := *planMode == "auto"
	backend := *algo
	if *planMode != "" && !auto {
		backend = *planMode
	}
	var s *slicer.Slicer
	if !auto {
		s = pickBackend(rec, backend)
		if s == nil {
			check(fmt.Errorf("unknown algorithm %q", backend))
		}
	}
	var eng *slicer.QueryEngine
	if auto {
		eng = rec.Engine(slicer.EngineOptions{})
	}

	if *repl {
		runREPL(rec, s, eng, string(src))
		return
	}

	if *varsCSV != "" {
		names := strings.Split(*varsCSV, ",")
		addrs := make([]int64, len(names))
		for i, n := range names {
			a, err := prog.GlobalAddr(strings.TrimSpace(n))
			check(err)
			addrs[i] = a
		}
		if !auto {
			eng = s.Engine(slicer.EngineOptions{})
		}
		slices, err := eng.SliceAddrs(addrs)
		check(err)
		for i, sl := range slices {
			fmt.Printf("--- %s\n", strings.TrimSpace(names[i]))
			printSlice(backendLabel(s), sl, string(src))
		}
		return
	}

	if *explainSpec != "" {
		var ex *slicer.Explanation
		switch {
		case auto && *varName != "":
			ex, err = eng.ExplainVar(*varName)
		case auto && *addr >= 0:
			ex, err = eng.Explain(*addr)
		case *varName != "":
			ex, err = s.ExplainVar(*varName)
		case *addr >= 0:
			ex, err = s.ExplainAddr(*addr)
		default:
			check(fmt.Errorf("-explain needs a criterion: pass -var or -addr"))
		}
		check(err)
		printSlice(backendLabel(s), ex.Slice, string(src))
		printExplanation(ex, *explainSpec)
		return
	}

	var sl *slicer.Slice
	switch {
	case auto && *varName != "":
		sl, err = eng.SliceVar(*varName)
	case auto && *addr >= 0:
		sl, err = eng.SliceAddr(*addr)
	case *varName != "":
		sl, err = s.SliceVar(*varName)
	case *addr >= 0:
		sl, err = s.SliceAddr(*addr)
	default:
		return // run-only mode
	}
	check(err)
	printSlice(backendLabel(s), sl, string(src))
}

// pickBackend maps a backend name to its slicer; nil for unknown names.
func pickBackend(rec *slicer.Recording, name string) *slicer.Slicer {
	switch name {
	case "opt":
		return rec.OPT()
	case "fp":
		return rec.FP()
	case "lp":
		return rec.LP()
	case "reexec":
		return rec.Reexec()
	case "forward":
		return rec.Forward()
	}
	return nil
}

// backendLabel names the answering configuration for output headers:
// the pinned backend, or "auto" when the planner chose per query (the
// per-query attribution lands in the -querylog audit records).
func backendLabel(s *slicer.Slicer) string {
	if s == nil {
		return "auto"
	}
	return s.Name()
}

// printExplanation prints the traversal profile and the witness chain for
// the statement named by spec ("s<ID>" or a source line number).
func printExplanation(ex *slicer.Explanation, spec string) {
	p := ex.Profile
	fmt.Printf("profile: %d nodes visited, %d label probes, %d edges (%d explicit, %d inferred, %d shortcut)\n",
		p.NodesVisited, p.LabelProbes, p.Edges, p.Explicit, p.Inferred, p.Shortcut)
	for kind, n := range p.ByKind {
		fmt.Printf("  %-18s %d\n", kind, n)
	}

	var (
		w  *explain.Witness
		ok bool
	)
	if rest, found := strings.CutPrefix(spec, "s"); found {
		id, err := strconv.Atoi(rest)
		check(err)
		w, ok = ex.Witness(ir.StmtID(id))
	} else {
		line, err := strconv.Atoi(spec)
		check(err)
		w, ok = ex.WitnessAtLine(line)
	}
	if !ok {
		fmt.Printf("no witness: %s is not in the slice\n", spec)
		return
	}
	fmt.Print(ex.FormatWitness(w))
}

func printSlice(name string, sl *slicer.Slice, src string) {
	fmt.Printf("%s slice: %d statements, %d source lines (%.3f ms)\n",
		name, sl.Stmts, len(sl.Lines), float64(sl.Time.Microseconds())/1000)
	lines := strings.Split(src, "\n")
	for _, ln := range sl.Lines {
		if ln-1 < len(lines) {
			fmt.Printf("%4d | %s\n", ln, lines[ln-1])
		}
	}
}

// runREPL answers slicing queries interactively against one recording —
// the usage pattern the paper optimizes for: many slices, one build.
// With eng set (started under -plan auto) queries dispatch through the
// cost-based planner; `algo` switches between pinned backends and
// `algo auto` back to the planner.
func runREPL(rec *slicer.Recording, s *slicer.Slicer, eng *slicer.QueryEngine, src string) {
	sliceVar := func(name string) (*slicer.Slice, error) {
		if eng != nil {
			return eng.SliceVar(name)
		}
		return s.SliceVar(name)
	}
	sliceAddr := func(a int64) (*slicer.Slice, error) {
		if eng != nil {
			return eng.SliceAddr(a)
		}
		return s.SliceAddr(a)
	}
	label := func() string {
		if eng != nil {
			return "auto"
		}
		return strings.ToLower(s.Name())
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Println("slicer repl — commands: var NAME | addr N | algo auto|opt|fp|lp|reexec|forward | quit")
	fmt.Printf("[%s]> ", label())
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Printf("[%s]> ", label())
			continue
		}
		switch fields[0] {
		case "quit", "exit", "q":
			return
		case "algo":
			if len(fields) == 2 {
				if fields[1] == "auto" {
					if eng == nil {
						eng = rec.Engine(slicer.EngineOptions{})
					}
				} else if next := pickBackend(rec, fields[1]); next != nil {
					s, eng = next, nil
				} else {
					fmt.Println("unknown algorithm; use auto, opt, fp, lp, reexec, or forward")
				}
			}
		case "var":
			if len(fields) == 2 {
				if sl, err := sliceVar(fields[1]); err != nil {
					fmt.Println("error:", err)
				} else {
					printSlice(label(), sl, src)
				}
			}
		case "addr":
			if len(fields) == 2 {
				if a, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
					if sl, serr := sliceAddr(a); serr != nil {
						fmt.Println("error:", serr)
					} else {
						printSlice(label(), sl, src)
					}
				}
			}
		default:
			fmt.Println("commands: var NAME | addr N | algo auto|opt|fp|lp|reexec|forward | quit")
		}
		fmt.Printf("[%s]> ", label())
	}
}

// debugMux builds the -pprof server's handler: an explicit mux (not
// http.DefaultServeMux, so nothing else in the process can silently
// register handlers on it) carrying pprof, expvar, the query ring, and
// the Prometheus text exposition.
func debugMux(reg *telemetry.Registry, qlog *querylog.Log, qstats *stats.Recorder, qtr *qtrace.Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/debug/queries", qlog)
	// One handler serves both the ring listing and /debug/qtrace/<id>.
	mux.Handle("/debug/qtrace", qtr)
	mux.Handle("/debug/qtrace/", qtr)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", telemetry.PromContentType)
		if err := reg.WritePrometheus(w, "dynslice"); err != nil {
			return
		}
		qstats.Snapshot().WritePrometheus(w, "dynslice")
		if qlog != nil {
			fmt.Fprintf(w, "# HELP dynslice_querylog_total Queries recorded by the flight recorder.\n")
			fmt.Fprintf(w, "# TYPE dynslice_querylog_total counter\n")
			fmt.Fprintf(w, "dynslice_querylog_total %d\n", qlog.Total())
			fmt.Fprintf(w, "# HELP dynslice_querylog_slow_total Queries over the -slowms threshold.\n")
			fmt.Fprintf(w, "# TYPE dynslice_querylog_slow_total counter\n")
			fmt.Fprintf(w, "dynslice_querylog_slow_total %d\n", qlog.SlowQueries())
		}
	})
	return mux
}

// onExit, when set, runs before an error exit (os.Exit skips defers).
var onExit func()

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "slicer:", err)
		if onExit != nil {
			onExit()
		}
		os.Exit(1)
	}
}
