// Package slicer is the public API of dynslice, a reproduction of
// "Cost Effective Dynamic Program Slicing" (Zhang & Gupta, PLDI 2004).
//
// The package compiles MiniC programs, executes them under an
// instrumenting interpreter, and answers dynamic slicing queries with any
// of the paper's three algorithms:
//
//   - FP: the full dynamic dependence graph, every dependence instance
//     labeled with a timestamp pair (paper §2),
//   - LP: demand-driven backward traversal of an on-disk execution trace
//     with summary-guided segment skipping (the paper's prior algorithm),
//   - OPT: the paper's contribution — a compacted dependence graph whose
//     labels are mostly inferred from statically introduced unlabeled
//     edges (OPT-1 … OPT-6 plus shortcut edges).
//
// Typical use:
//
//	p, _ := slicer.Compile(src)
//	rec, _ := p.Record(slicer.RunOptions{Input: []int64{42}})
//	defer rec.Close()
//	s, _ := rec.OPT().SliceVar("result")
//	fmt.Println(s.Lines) // source lines the final value of result depends on
package slicer

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dynslice/internal/compile"
	"dynslice/internal/interp"
	"dynslice/internal/ir"
	"dynslice/internal/profile"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/forward"
	"dynslice/internal/slicing/fp"
	"dynslice/internal/slicing/lp"
	"dynslice/internal/slicing/opt"
	"dynslice/internal/slicing/plan"
	"dynslice/internal/slicing/reexec"
	"dynslice/internal/slicing/snapshot"
	"dynslice/internal/telemetry"
	"dynslice/internal/telemetry/qtrace"
	"dynslice/internal/telemetry/querylog"
	"dynslice/internal/telemetry/stats"
	"dynslice/internal/trace"
)

// Program is a compiled MiniC program.
type Program struct {
	ir *ir.Program
}

// Compile parses, checks, lowers, and analyzes MiniC source text.
func Compile(src string) (*Program, error) {
	return CompileWith(src, nil)
}

// CompileWith is Compile with telemetry: compile-phase spans and
// program-shape gauges land on reg. A nil registry costs nothing.
func CompileWith(src string, reg *telemetry.Registry) (*Program, error) {
	p, err := compile.SourceWith(src, reg)
	if err != nil {
		return nil, err
	}
	return &Program{ir: p}, nil
}

// IR returns the analyzed intermediate representation (read-only).
func (p *Program) IR() *ir.Program { return p.ir }

// DumpIR renders the lowered program for inspection.
func (p *Program) DumpIR() string { return p.ir.Dump() }

// RunOptions configures Record.
type RunOptions struct {
	Input    []int64 // values consumed by input()
	MaxSteps int64   // statement budget (0 = interp.DefaultMaxSteps)
	TraceDir string  // where the trace file is written (default: temp dir)
	// OptConfig overrides the OPT configuration (default: opt.Full()).
	OptConfig *opt.Config
	// Telemetry receives phase spans and pipeline counters for this
	// recording and its slicers. Nil disables collection at near-zero
	// cost (see docs/OBSERVABILITY.md).
	Telemetry *telemetry.Registry
	// QueryLog receives one audit record per slicing query answered
	// against this recording (single, batched, cached, or observed) —
	// the query flight recorder. Nil disables recording at the cost of
	// one nil check per query (see docs/OBSERVABILITY.md).
	QueryLog *querylog.Log
	// QueryStats accumulates per-backend rolling workload statistics
	// (latency quantiles, EWMA, cache hit rate, inferred-edge ratio)
	// over the same query stream — the cost-based planner's feedback
	// input. Nil disables collection.
	QueryStats *stats.Recorder
	// QueryTrace captures per-query causal span trees: the planner
	// decision, each fallback-ladder rung, backend execution, lazy graph
	// builds, and snapshot load, retained under the tracer's tail-based
	// sampling policy (see internal/telemetry/qtrace and
	// docs/OBSERVABILITY.md "Per-query tracing"). Nil disables tracing
	// at the cost of nil checks on the query path.
	QueryTrace *qtrace.Tracer
	// TrackCriteria, when positive, records up to this many slicing
	// criteria during the instrumented run (distinct addresses, most
	// recently defined first — the paper's selection), retrievable via
	// Recording.Criteria.
	TrackCriteria int
	// Snapshot enables the persistent graph cache: with Read set, Record
	// first looks for an on-disk graph image content-addressed by
	// (program, input, configuration) and, on a hit, returns a recording
	// without executing the program at all (an FP query later re-runs
	// it); with Write set, a freshly built recording's OPT graph is saved
	// back. See docs/PERFORMANCE.md "Snapshot format".
	Snapshot SnapshotOptions
	// DeferGraphs skips the OPT graph construction during Record: only
	// the trace file (and segment summaries) are produced, and OPT is
	// built lazily — by re-running the program, as FP always is — the
	// first time an OPT query needs it. A rare-query workload answered by
	// the re-execution or LP backend then never pays graph construction
	// at all. Such a recording also captures one interpreter checkpoint
	// per trace segment, the re-execution backend's resume points.
	// Ignored when Snapshot.Write is set (the snapshot needs OPT). See
	// docs/PLANNER.md.
	DeferGraphs bool
	// Planner supplies the cost-based query planner consulted by
	// Recording.Engine. Nil creates a fresh one seeded from this
	// recording's features. See docs/PLANNER.md.
	Planner *plan.Planner
	// WithForward additionally computes the forward-slicing index during
	// the instrumented run (precomputed slice sets; O(1) queries, no
	// explain support). It becomes a planner candidate. A snapshot hit
	// has no instrumented run and carries no forward index.
	WithForward bool
}

// SnapshotOptions configures the persistent graph cache (see
// RunOptions.Snapshot).
type SnapshotOptions struct {
	// Dir is the cache directory; empty means the per-user default
	// (os.UserCacheDir()/dynslice/snapshots).
	Dir string
	// Read makes Record try to load a cached graph image before running
	// the program. A corrupt or mismatched image is counted
	// (engine.snapshot.fallback, snapshot.read.err.<class>) and falls
	// back to a fresh build — never an error, never a wrong slice.
	Read bool
	// Write makes Record save the built graphs after a fresh build (or a
	// cache miss). Write failures are counted (snapshot.write.err) but do
	// not fail the recording.
	Write bool
}

// Recording is one instrumented execution: its outputs, its on-disk trace,
// and the dependence graphs built from it. Record builds OPT (unless
// RunOptions.DeferGraphs); FP, and a deferred OPT, are built on first use
// by re-running the program.
type Recording struct {
	p       *Program
	Output  []int64
	Steps   int64
	Return  int64
	path    string
	cleanup func()
	tel     *telemetry.Registry
	qlog    *querylog.Log
	qstats  *stats.Recorder
	qtr     *qtrace.Tracer
	crit    []int64
	source  string // "build" or "snapshot"

	segs    []*trace.Segment
	fpG     lazyGraph[fp.Graph]
	optG    lazyGraph[opt.Graph]
	lpS     *lp.Slicer
	reexecS *reexec.Slicer
	fwd     *forward.Slicer
	optCfg  opt.Config
	hot     []*profile.PathProfile
	cuts    *profile.Cuts

	// Inputs of the instrumented run, kept so the re-execution backend
	// and the lazy graph builds can regenerate it. watermark, its address
	// space in words, sizes a lazy build's tables; a snapshot-loaded
	// recording does not know it (0).
	input       []int64
	maxSteps    int64
	totalBlocks int64
	watermark   int64
	planner     *plan.Planner
}

// segmentBlocks is the trace segment length, in block executions, of a
// recording's trace. A DeferGraphs recording captures one interpreter
// checkpoint per segment.
const segmentBlocks = 4096

// Record runs the program twice — once to collect the Ball-Larus path
// profile (as the paper does), once instrumented — building the OPT graph
// online and writing the trace file the LP slicer reads. FP is built on
// its first use.
func (p *Program) Record(o RunOptions) (*Recording, error) {
	// The recording itself gets a causal trace (kind "record"): profile
	// run, snapshot load, and the instrumented run with its trace write
	// each render as a span. Retention follows the query policy — a
	// snapshot miss marks the trace cache-missed.
	qt := o.QueryTrace.StartQuery("record", 0, 0, time.Now())
	var out qtrace.Outcome
	rec, err := p.record(o, qt, &out)
	out.Err = querylog.Classify(err)
	o.QueryTrace.Finish(qt, out)
	return rec, err
}

func (p *Program) record(o RunOptions, qt *qtrace.Trace, out *qtrace.Outcome) (*Recording, error) {
	cfg := opt.Full()
	if o.OptConfig != nil {
		cfg = *o.OptConfig
	}
	span := o.Telemetry.StartSpan("record")
	defer span.End()

	// Persistent graph cache: resolve the content address first; a hit
	// answers the whole Record call without executing the program.
	var cache *snapshot.Cache
	var key snapshot.Key
	if o.Snapshot.Read || o.Snapshot.Write {
		var err error
		if cache, err = snapshot.NewCache(o.Snapshot.Dir); err != nil {
			if reg := o.Telemetry; reg != nil {
				reg.Counter("snapshot.cache.err").Inc()
			}
			cache = nil // cache trouble disables snapshotting, never the build
		} else {
			key = snapshot.Key{
				Program: snapshot.HashProgram(p.ir),
				Input:   snapshot.HashInput(o.Input, o.MaxSteps),
				Config:  snapshot.HashConfig(configFingerprint(cfg, o.TrackCriteria)),
			}
		}
	}
	if cache != nil && o.Snapshot.Read {
		lsp := qt.Root().Child("snapshot-load")
		hit := p.loadSnapshot(cache, key, o, cfg, lsp)
		lsp.End()
		if hit != nil {
			out.CacheHit = true
			return hit, nil
		}
		out.CacheMiss = true
	}

	sp := span.Child("profile")
	qsp := qt.Root().Child("profile")
	col := profile.NewCollector(p.ir)
	pres, err := interp.Run(p.ir, interp.Options{Input: o.Input, MaxSteps: o.MaxSteps, Sink: col, Telemetry: o.Telemetry})
	sp.End()
	qsp.End()
	if err != nil {
		return nil, fmt.Errorf("slicer: profiling run: %w", err)
	}
	hot := col.HotPaths(1, 0)
	cuts := col.Cuts()

	// The instrumented run's span covers its set-up too: the trace file
	// and the OPT graph's static component.
	sp = span.Child("interp")
	qsp = qt.Root().Child("interp")
	// DeferGraphs skips the online OPT construction (OPT is then built on
	// demand, like FP); a snapshot write needs OPT now, so it overrides
	// the deferral.
	deferred := o.DeferGraphs && !(cache != nil && o.Snapshot.Write)
	rec, picker, err := p.instrumentedRun(o, cfg, hot, cuts, pres.Watermark, deferred)
	sp.End()
	if err != nil {
		qsp.End()
		return nil, err
	}
	// Annotate the instrumented-run span with the trace I/O it produced.
	if qt != nil {
		qsp.Int("steps", rec.Steps).Int("blocks", rec.totalBlocks).Int("trace_segments", int64(len(rec.segs)))
	}
	qsp.End()

	if picker != nil {
		sp = span.Child("pick")
		qsp = qt.Root().Child("pick")
		rec.crit = picker.Pick(o.TrackCriteria)
		sp.End()
		qsp.End()
	}
	if cache != nil && o.Snapshot.Write {
		sp = span.Child("snapshot-write")
		qsp = qt.Root().Child("snapshot-write")
		rec.writeSnapshot(cache, key, rec.optG.built())
		sp.End()
		qsp.End()
	}
	return rec, nil
}

// instrumentedRun is Record's second run. It writes the trace, builds
// OPT online unless deferred, and feeds the criterion picker it returns
// (nil unless o tracks criteria) and the forward index. The run repeats
// the profiling run exactly, frames included, so that run's watermark wm
// sizes the interpreter's memory and every address-indexed table up
// front; any other wm costs only growth and gives the same recording.
func (p *Program) instrumentedRun(o RunOptions, cfg opt.Config, hot []*profile.PathProfile, cuts *profile.Cuts, wm int64, deferred bool) (*Recording, *trace.CritPicker, error) {
	dir := o.TraceDir
	var tmp string
	if dir == "" {
		var err error
		tmp, err = os.MkdirTemp("", "dynslice")
		if err != nil {
			return nil, nil, err
		}
		dir = tmp
	}
	tracePath := filepath.Join(dir, "run.trace")
	cleanup := func() {
		// The trace file may live in a caller-supplied directory; remove
		// it explicitly before removing our own temp dir (if any).
		os.Remove(tracePath)
		if tmp != "" {
			os.RemoveAll(tmp)
		}
	}
	// Until the recording is complete, every error return must release
	// what was created so far (trace file, temp dir).
	ok := false
	defer func() {
		if !ok {
			cleanup()
		}
	}()
	f, err := os.Create(tracePath)
	if err != nil {
		return nil, nil, err
	}
	tw := trace.NewWriter(p.ir, f, segmentBlocks)
	tw.SetMetrics(trace.NewMetrics(o.Telemetry))
	sink := trace.Multi{tw}
	var optG *opt.Graph
	var aopt *trace.Async
	if !deferred {
		optG = opt.NewGraph(p.ir, cfg, hot, cuts)
		optG.SetTelemetry(o.Telemetry)
		optG.Reserve(wm)
		// The OPT builder runs as a pipelined Async sink: the interpreter
		// batches events into pooled buffers and the builder consumes them
		// concurrently, sealing each label block inline as its list fills.
		// The trace writer stays inline so trace I/O errors surface
		// synchronously. An attached timeline (telemetry.AttachTimeline)
		// gives the builder worker its own opt-build row of per-batch
		// activity.
		aopt = trace.NewAsync(optG, trace.PipelineConfig{Timeline: o.Telemetry.Timeline()})
		sink = append(sink, aopt)
	}
	var fwd *forward.Slicer
	if o.WithForward {
		// The forward index builder stays inline like the picker: its
		// per-event work is set arithmetic on interned IDs.
		fwd = forward.New(p.ir)
		sink = append(sink, fwd)
	}
	var picker *trace.CritPicker
	if o.TrackCriteria > 0 {
		// Criterion tracking stays inline: the picker is cheap (two stores
		// into tables dense by address per defined address) and must see
		// the full run.
		picker = trace.NewCritPicker()
		picker.Reserve(wm)
		sink = append(sink, picker)
	}
	// Checkpoint capture feeds the re-execution backend, the expected
	// one when the graphs are deferred.
	var ckEvery int64
	if deferred {
		ckEvery = segmentBlocks
	}
	res, err := interp.Run(p.ir, interp.Options{
		Input:           o.Input,
		MaxSteps:        o.MaxSteps,
		Sink:            sink,
		Telemetry:       o.Telemetry,
		CheckpointEvery: ckEvery,
		Watermark:       wm,
	})
	if err != nil {
		// The interpreter never delivered End; drain the async builder
		// so its goroutine exits before we tear the recording down.
		if aopt != nil {
			aopt.Close()
		}
		f.Close()
		return nil, nil, err
	}
	if err := f.Close(); err != nil {
		return nil, nil, err
	}
	if tw.Err() != nil {
		return nil, nil, tw.Err()
	}
	segs := tw.Segments()
	rec := p.newRecording(o, cfg, "build", res, segs)
	rec.path, rec.cleanup = tracePath, cleanup
	rec.hot, rec.cuts, rec.fwd = hot, cuts, fwd
	if optG != nil {
		rec.optG.set(optG)
	}
	rec.lpS = lp.New(p.ir, tracePath, segs)
	rec.lpS.SetTelemetry(o.Telemetry)
	ok = true
	return rec, picker, nil
}

// newRecording returns the recording of one run on o's input, made by
// Record's instrumented run ("build") or loaded from a snapshot
// ("snapshot"). res holds the run's outputs, its step and block counts
// and its checkpoints, of which a load has none. Both paths get the
// sinks o attaches, the re-execution backend and the planner seeded with
// the run's features from here; the caller adds the graphs and, for a
// build, the trace.
func (p *Program) newRecording(o RunOptions, cfg opt.Config, source string, res *interp.Result, segs []*trace.Segment) *Recording {
	rec := &Recording{
		p: p, optCfg: cfg, source: source,
		tel: o.Telemetry, qlog: o.QueryLog, qstats: o.QueryStats, qtr: o.QueryTrace,
		Output: res.Output, Steps: res.Steps, Return: res.ReturnValue,
		segs: segs, input: o.Input, maxSteps: o.MaxSteps, totalBlocks: res.BlockExecs,
		watermark: res.Watermark, planner: o.Planner,
	}
	rec.reexecS = reexec.New(p.ir, segs, reexec.Options{
		Input:       o.Input,
		MaxSteps:    o.MaxSteps,
		TotalBlocks: res.BlockExecs,
		Checkpoints: res.Checkpoints,
	})
	rec.reexecS.SetTelemetry(o.Telemetry)
	if rec.planner == nil {
		rec.planner = plan.New()
	}
	rec.planner.Seed(plan.Features{
		TraceBlocks: res.BlockExecs,
		TraceSteps:  res.Steps,
		Segments:    len(segs),
		IRStmts:     len(p.ir.Stmts),
	})
	return rec
}

// configFingerprint renders every knob that shapes the snapshot bytes —
// the OPT graph and the tracked criteria — into the stable string the
// cache key's Config digest covers. Telemetry, logging, and build
// parallelism are absent: they do not change the graph.
func configFingerprint(cfg opt.Config, trackCriteria int) string {
	return fmt.Sprintf("opt=%+v|crit=%d", cfg, trackCriteria)
}

// loadSnapshot tries to answer Record from the cache. It returns nil on
// any miss — absent file, corrupt file, mismatched key — counting the
// reason; the caller falls back to a fresh build. sp (the record
// trace's snapshot-load span) is annotated with the outcome and, on a
// hit, the image size.
func (p *Program) loadSnapshot(cache *snapshot.Cache, key snapshot.Key, o RunOptions, cfg opt.Config, sp qtrace.SpanRef) *Recording {
	path := cache.Path(key)
	fi, err := os.Stat(path)
	if err != nil {
		if reg := o.Telemetry; reg != nil {
			reg.Counter("engine.snapshot.miss").Inc()
		}
		sp.Str("result", "miss")
		return nil
	}
	t0 := time.Now()
	img, err := snapshot.Read(path, p.ir, key)
	if err != nil {
		if reg := o.Telemetry; reg != nil {
			reg.Counter("snapshot.read.err." + snapshot.Classify(err)).Inc()
			reg.Counter("engine.snapshot.fallback").Inc()
		}
		sp.Str("result", "fallback").Str("err_class", snapshot.Classify(err))
		return nil
	}
	if reg := o.Telemetry; reg != nil {
		reg.Counter("engine.snapshot.hit").Inc()
		reg.Counter("snapshot.load.ns").Add(time.Since(t0).Nanoseconds())
		reg.Counter("snapshot.load.bytes").Add(fi.Size())
	}
	sp.Str("result", "hit").Int("bytes", fi.Size())
	// A snapshot persists OPT, not the trace — but the inputs are part of
	// the cache key, so the program can be re-run: the re-execution
	// backend regenerates any segment from scratch (no checkpoints
	// survive the snapshot round-trip), and FP is built by a re-run on
	// first use.
	run := &interp.Result{Output: img.Output, Steps: img.Steps, ReturnValue: img.Return}
	if n := len(img.Segs); n > 0 {
		run.BlockExecs = img.Segs[n-1].EndOrd
	}
	rec := p.newRecording(o, cfg, "snapshot", run, img.Segs)
	rec.crit = img.Criteria
	img.OPT.SetTelemetry(o.Telemetry)
	rec.optG.set(img.OPT)
	return rec
}

// writeSnapshot saves the built OPT graph to the cache, without FP: a
// hit re-runs the program for FP when a query asks for it. Failures are
// counted but never fail the recording: the snapshot is an accelerator,
// not an output.
func (r *Recording) writeSnapshot(cache *snapshot.Cache, key snapshot.Key, optG *opt.Graph) {
	img := &snapshot.Image{
		Output: r.Output, Steps: r.Steps, Return: r.Return, Criteria: r.crit,
		Segs: r.segs, OPT: optG,
	}
	t0 := time.Now()
	n, err := snapshot.Write(cache.Path(key), key, img)
	if reg := r.tel; reg != nil {
		if err != nil {
			reg.Counter("snapshot.write.err").Inc()
			return
		}
		reg.Counter("snapshot.write.ns").Add(time.Since(t0).Nanoseconds())
		reg.Counter("snapshot.write.bytes").Add(n)
	}
}

// Close removes temporary artifacts (the trace file and, when Record
// created one, its temp directory). Closing twice is a no-op; a
// Recording whose trace was removed can no longer answer LP queries.
func (r *Recording) Close() {
	if r.cleanup != nil {
		r.cleanup()
		r.cleanup = nil
	}
}

// TracePath returns the on-disk trace file location (empty until Record
// has created it; invalid after Close).
func (r *Recording) TracePath() string { return r.path }

// Telemetry returns the registry attached via RunOptions, or nil.
func (r *Recording) Telemetry() *telemetry.Registry { return r.tel }

// QueryLog returns the query flight recorder attached via RunOptions,
// or nil.
func (r *Recording) QueryLog() *querylog.Log { return r.qlog }

// QueryStats returns the workload-statistics recorder attached via
// RunOptions, or nil.
func (r *Recording) QueryStats() *stats.Recorder { return r.qstats }

// Criteria returns the slicing criteria tracked during the instrumented
// run (RunOptions.TrackCriteria): distinct defined addresses, most
// recently defined first. Empty when tracking was off.
func (r *Recording) Criteria() []int64 { return r.crit }

// Source reports where this recording's graphs came from: "build" (fresh
// instrumented execution) or "snapshot" (loaded from the persistent
// graph cache). Every audit record the recording emits carries the same
// value.
func (r *Recording) Source() string { return r.source }

// QueryTrace returns the per-query causal tracer attached via
// RunOptions, or nil.
func (r *Recording) QueryTrace() *qtrace.Tracer { return r.qtr }

// Slice is a slicing result mapped back to the source program.
type Slice struct {
	// Lines are the distinct source lines in the slice, ascending.
	Lines []int
	// Stmts is the number of IR statements in the slice.
	Stmts int
	// Time is the wall-clock cost of the query.
	Time time.Duration
	// QueryID is the flight-recorder ID of the query that computed this
	// slice (0 when no query log was attached). A cached result keeps
	// the ID of the query that originally computed it; the cache hit
	// itself is audited under its own ID.
	QueryID uint64
	// TraceID identifies the causal trace of the query that computed
	// this slice (0 when no tracer was attached). When the trace was
	// retained, /debug/qtrace/<id> renders its span tree. Like QueryID,
	// a cached result keeps the computing query's trace.
	TraceID qtrace.TraceID
	raw     *slicing.Slice
}

// HasLine reports whether the slice contains the given source line.
func (s *Slice) HasLine(line int) bool {
	for _, l := range s.Lines {
		if l == line {
			return true
		}
	}
	return false
}

// Raw exposes the underlying statement set.
func (s *Slice) Raw() *slicing.Slice { return s.raw }

// Slicer answers slicing queries against one algorithm's graph.
type Slicer struct {
	rec  *Recording
	name string
	impl slicing.MultiSlicer
}

// lazyGraph holds one of a recording's graphs: set by Record, or built
// on first use. The outcome of the one build — the graph, or an error
// that latches — is published atomically, so queries and planner
// availability checks never wait on the build of another graph; mu
// serializes only this graph's builders.
type lazyGraph[G any] struct {
	mu   sync.Mutex
	done atomic.Pointer[graphBuild[G]]
}

type graphBuild[G any] struct {
	g   *G
	err error
}

// set installs a graph that Record built or loaded.
func (l *lazyGraph[G]) set(g *G) { l.done.Store(&graphBuild[G]{g: g}) }

// built returns the graph if it is built, else nil.
func (l *lazyGraph[G]) built() *G {
	if b := l.done.Load(); b != nil {
		return b.g
	}
	return nil
}

// get returns the graph, running build on the first call. A failed
// build latches: later calls return the same error without retrying.
func (l *lazyGraph[G]) get(build func() (*G, error)) (*G, error) {
	if b := l.done.Load(); b != nil {
		return b.g, b.err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if b := l.done.Load(); b != nil {
		return b.g, b.err
	}
	g, err := build()
	l.done.Store(&graphBuild[G]{g, err})
	return g, err
}

// state reports whether the graph is built, and whether it can answer:
// false once its build has failed.
func (l *lazyGraph[G]) state() (warm, ok bool) {
	b := l.done.Load()
	if b == nil {
		return false, true
	}
	return b.err == nil, b.err == nil
}

// ensureFP returns the FP graph, building it by a re-run on first use.
func (r *Recording) ensureFP() (*fp.Graph, error) {
	return r.fpG.get(func() (*fp.Graph, error) {
		g := fp.NewGraph(r.p.ir)
		g.SetTelemetry(r.tel)
		g.Reserve(r.watermark)
		if err := r.rerunInto("fp-deferred-build", g); err != nil {
			return nil, fmt.Errorf("slicer: deferred FP build: %w", err)
		}
		return g, nil
	})
}

// ensureOPT is ensureFP for the compacted graph, which only a
// RunOptions.DeferGraphs recording builds lazily.
func (r *Recording) ensureOPT() (*opt.Graph, error) {
	return r.optG.get(func() (*opt.Graph, error) {
		g := opt.NewGraph(r.p.ir, r.optCfg, r.hot, r.cuts)
		g.SetTelemetry(r.tel)
		g.Reserve(r.watermark)
		if err := r.rerunInto("opt-deferred-build", g); err != nil {
			return nil, fmt.Errorf("slicer: deferred OPT build: %w", err)
		}
		return g, nil
	})
}

// rerunInto is the lazy graph build: it re-runs the program on the
// recording's input straight into a graph builder, under a telemetry
// span. The run takes the recording's step budget, captures no
// checkpoints and writes no trace, so it serves a snapshot-loaded
// recording, or one whose trace Close removed, as well. Execution is
// deterministic: a run whose step count, block count or output differs
// from the recording's fed the builder some other execution, and fails
// the build as a backend fault.
func (r *Recording) rerunInto(span string, sink trace.Sink) error {
	sp := r.tel.StartSpan(span)
	defer sp.End()
	res, err := interp.Run(r.p.ir, interp.Options{Input: r.input, MaxSteps: r.maxSteps, Sink: sink, Telemetry: r.tel, Watermark: r.watermark})
	if err != nil {
		return fmt.Errorf("re-run: %w", err)
	}
	if res.Steps != r.Steps || res.BlockExecs != r.totalBlocks || !slices.Equal(res.Output, r.Output) {
		return fmt.Errorf("re-run diverged from the recording: %d steps, %d blocks, %d outputs against %d, %d, %d",
			res.Steps, res.BlockExecs, len(res.Output), r.Steps, r.totalBlocks, len(r.Output))
	}
	return nil
}

// FP returns the full-graph slicer, building the graph on first use.
func (r *Recording) FP() *Slicer {
	g, err := r.ensureFP()
	if err != nil {
		return &Slicer{rec: r, name: "FP", impl: unavailableSlicer{err}}
	}
	return &Slicer{rec: r, name: "FP", impl: g}
}

// OPT returns the compacted-graph slicer (the paper's algorithm),
// building the graph on first use when Record deferred it.
func (r *Recording) OPT() *Slicer {
	g, err := r.ensureOPT()
	if err != nil {
		return &Slicer{rec: r, name: "OPT", impl: unavailableSlicer{err}}
	}
	return &Slicer{rec: r, name: "OPT", impl: g}
}

// Reexec returns the re-execution slicer: queries are answered by
// resuming the interpreter from checkpoints and running the LP
// traversal over the regenerated events — no graph, no trace reads.
func (r *Recording) Reexec() *Slicer {
	if r.reexecS == nil {
		return &Slicer{rec: r, name: "reexec", impl: unavailableSlicer{errNoReexec}}
	}
	return &Slicer{rec: r, name: "reexec", impl: r.reexecS}
}

// Forward returns the forward-computed slicer (RunOptions.WithForward):
// per-address slice sets precomputed during the run, answered by
// lookup. Unavailable unless the recording's instrumented run was made
// WithForward; a snapshot hit has none.
func (r *Recording) Forward() *Slicer {
	if r.fwd == nil {
		return &Slicer{rec: r, name: "forward", impl: unavailableSlicer{errNoForward}}
	}
	return &Slicer{rec: r, name: "forward", impl: loopMulti{r.fwd}}
}

var (
	errNoReexec  = errors.New("slicer: re-execution backend unavailable for this recording")
	errNoForward = errors.New("slicer: no forward index: the recording was made without RunOptions.WithForward, or loaded from a snapshot")
)

// loopMulti lifts a single-criterion slicer into MultiSlicer by
// looping — for backends whose per-query cost is a lookup, batching
// has nothing to share.
type loopMulti struct{ s slicing.Slicer }

func (m loopMulti) Slice(c slicing.Criterion) (*slicing.Slice, *slicing.Stats, error) {
	return m.s.Slice(c)
}

func (m loopMulti) SliceAll(cs []slicing.Criterion) ([]*slicing.Slice, *slicing.Stats, error) {
	outs := make([]*slicing.Slice, len(cs))
	agg := &slicing.Stats{}
	for i, c := range cs {
		sl, st, err := m.s.Slice(c)
		if err != nil {
			return nil, nil, err
		}
		outs[i] = sl
		if st != nil {
			agg.Instances += st.Instances
			agg.LabelProbes += st.LabelProbes
		}
	}
	return outs, agg, nil
}

// LP returns the demand-driven trace slicer. A snapshot-loaded recording
// has no trace file, so its LP slicer answers every query with an error
// (snapshots persist the graphs, not the execution trace).
func (r *Recording) LP() *Slicer {
	if r.lpS == nil {
		return &Slicer{rec: r, name: "LP", impl: unavailableSlicer{errLPSnapshot}}
	}
	return &Slicer{rec: r, name: "LP", impl: r.lpS}
}

// errLPSnapshot is returned by LP queries against snapshot-loaded
// recordings.
var errLPSnapshot = errors.New("slicer: LP is unavailable for a snapshot-loaded recording (no trace file)")

// unavailableSlicer rejects every query with a fixed error.
type unavailableSlicer struct{ err error }

func (u unavailableSlicer) Slice(slicing.Criterion) (*slicing.Slice, *slicing.Stats, error) {
	return nil, nil, u.err
}

func (u unavailableSlicer) SliceAll([]slicing.Criterion) ([]*slicing.Slice, *slicing.Stats, error) {
	return nil, nil, u.err
}

// Name reports which algorithm this slicer uses.
func (s *Slicer) Name() string { return s.name }

// SliceAddr slices on the last definition of the given memory address.
func (s *Slicer) SliceAddr(addr int64) (*Slice, error) {
	outs, _, err := s.direct(querylog.KindSlice, []int64{addr})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// SliceAddrs answers a batch of address criteria in one shared backward
// traversal (slicing.MultiSlicer): results are identical to calling
// SliceAddr per address, but visited state, label resolution, and — for
// LP — trace segment scans are shared across the whole batch.
func (s *Slicer) SliceAddrs(addrs []int64) ([]*Slice, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	outs, _, err := s.direct(querylog.KindBatch, addrs)
	return outs, err
}

// SliceVar slices on the last definition of a global scalar variable.
func (s *Slicer) SliceVar(name string) (*Slice, error) {
	addr, err := s.rec.p.GlobalAddr(name)
	if err != nil {
		return nil, err
	}
	return s.SliceAddr(addr)
}

// GlobalAddr returns the address of a global scalar (or the first element
// of a global array).
func (p *Program) GlobalAddr(name string) (int64, error) {
	for _, o := range p.ir.Globals {
		if o.Name == name {
			return interp.GlobalBase + o.Off, nil
		}
	}
	return 0, fmt.Errorf("slicer: no global named %q", name)
}

// GraphStats summarizes the two in-memory dependence graphs, mirroring the
// quantities the paper's tables report.
type GraphStats struct {
	FPLabelPairs  int64
	OPTLabelPairs int64
	FPSizeBytes   int64
	OPTSizeBytes  int64
	StaticEdges   int64
	PathNodes     int
}

// Stats returns graph statistics for this recording, building FP (and a
// deferred OPT) if necessary (zero stats when a lazy build fails).
func (r *Recording) Stats() GraphStats {
	fpG, err1 := r.ensureFP()
	optG, err2 := r.ensureOPT()
	if err1 != nil || err2 != nil {
		return GraphStats{}
	}
	return GraphStats{
		FPLabelPairs:  fpG.LabelPairs(),
		OPTLabelPairs: optG.LabelPairs(),
		FPSizeBytes:   fpG.SizeBytes(),
		OPTSizeBytes:  optG.SizeBytes(),
		StaticEdges:   optG.StaticEdges(),
		PathNodes:     optG.PathNodes(),
	}
}

// Planner returns the recording's cost-based query planner (always
// non-nil after Record).
func (r *Recording) Planner() *plan.Planner { return r.planner }

// PlanFor returns the planner's decision for one query shape against
// the recording's current backend availability and live workload
// statistics. Purely informational: it changes no state.
func (r *Recording) PlanFor(shape plan.Shape) plan.Decision {
	return r.planner.Decide(shape, r.availability(), r.qstats.Snapshot())
}

// availability reports which backends can answer right now and which
// graphs are already built. A graph can always be built by a re-run
// unless its build has failed.
func (r *Recording) availability() plan.Availability {
	fpWarm, fpOK := r.fpG.state()
	optWarm, optOK := r.optG.state()
	return plan.Availability{
		FP:      fpOK,
		OPT:     optOK,
		LP:      r.lpS != nil,
		Reexec:  r.reexecS != nil,
		Forward: r.fwd != nil,
		FPWarm:  fpWarm,
		OPTWarm: optWarm,
	}
}

// backendSlicer maps a planner backend name to this recording's slicer
// for it (nil for unknown names).
func (r *Recording) backendSlicer(name string) *Slicer {
	switch name {
	case plan.FP:
		return r.FP()
	case plan.OPT:
		return r.OPT()
	case plan.LP:
		return r.LP()
	case plan.Reexec:
		return r.Reexec()
	case plan.Forward:
		return r.Forward()
	}
	return nil
}
