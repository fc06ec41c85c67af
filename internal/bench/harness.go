package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dynslice/internal/compile"
	"dynslice/internal/interp"
	"dynslice/internal/ir"
	"dynslice/internal/profile"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/fp"
	"dynslice/internal/slicing/lp"
	"dynslice/internal/slicing/opt"
	"dynslice/internal/telemetry"
	"dynslice/internal/trace"
)

// Options configures a workload build.
type Options struct {
	WithFP     bool
	WithLP     bool
	WithOPT    bool
	WithStages bool // also build opt.Stage(0..7) graphs (for Figs 15/16)
	OptConfig  *opt.Config
	NCriteria  int                 // slicing criteria to select (default 25, the paper's count)
	TraceDir   string              // directory for the LP trace file (default: temp)
	SegBlocks  int                 // trace segment granularity (default 4096)
	Telemetry  *telemetry.Registry // optional; phase spans + pipeline counters
}

// Result bundles everything built for one workload, with the preprocessing
// timings the paper's tables report.
type Result struct {
	W       Workload
	P       *ir.Program
	FP      *fp.Graph
	OPT     *opt.Graph
	Stages  []*opt.Graph
	LP      *lp.Slicer
	Segs    []*trace.Segment // summary-segment index of the written trace
	Crit    []int64          // criterion addresses (last-defined first)
	RunInfo *interp.Result
	USE     int // unique statements executed

	ProfileTime time.Duration // profiling run (path profile collection)
	TraceTime   time.Duration // instrumented run writing the LP trace
	FPBuild     time.Duration // FP preprocessing (trace -> full graph)
	OPTBuild    time.Duration // OPT preprocessing (trace -> compacted graph)

	TracePath string
	cleanup   func()
}

// Close removes temporary artifacts.
func (r *Result) Close() {
	if r.cleanup != nil {
		r.cleanup()
	}
}

// Build compiles and runs workload w, constructing the requested slicers.
func Build(w Workload, o Options) (*Result, error) {
	if o.NCriteria == 0 {
		o.NCriteria = 25
	}
	if o.SegBlocks == 0 {
		o.SegBlocks = 4096
	}
	reg := o.Telemetry
	p, err := compile.SourceWith(w.Src, reg)
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", w.Name, err)
	}
	res := &Result{W: w, P: p}
	span := reg.StartSpan("bench-build")
	defer span.End()

	// Profiling run.
	sp := span.Child("profile")
	col := profile.NewCollector(p)
	t0 := time.Now()
	if _, err := interp.Run(p, interp.Options{Input: w.Input, Sink: col, Telemetry: reg}); err != nil {
		sp.End()
		return nil, fmt.Errorf("bench %s profiling: %w", w.Name, err)
	}
	sp.End()
	res.ProfileTime = time.Since(t0)
	hot := col.HotPaths(1, 0)

	// Instrumented run: write the trace, pick criteria, count statements.
	dir := o.TraceDir
	var tmpdir string
	if dir == "" {
		tmpdir, err = os.MkdirTemp("", "dynslice")
		if err != nil {
			return nil, err
		}
		dir = tmpdir
	}
	res.TracePath = filepath.Join(dir, sanitize(w.Name)+".trace")
	tf, err := os.Create(res.TracePath)
	if err != nil {
		return nil, err
	}
	res.cleanup = func() {
		if tmpdir != "" {
			os.RemoveAll(tmpdir)
		}
	}
	tw := trace.NewWriter(p, tf, o.SegBlocks)
	tw.SetMetrics(trace.NewMetrics(reg))
	picker := trace.NewCritPicker()
	counter := trace.NewCounting(p)
	sinks := trace.Multi{tw, picker, counter}
	sp = span.Child("trace-write")
	t0 = time.Now()
	run, err := interp.Run(p, interp.Options{Input: w.Input, Sink: sinks, Telemetry: reg})
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("bench %s trace run: %w", w.Name, err)
	}
	res.TraceTime = time.Since(t0)
	if err := tf.Close(); err != nil {
		return nil, err
	}
	if tw.Err() != nil {
		return nil, tw.Err()
	}
	res.RunInfo = run
	res.USE = counter.USE()
	res.Segs = tw.Segments()
	res.Crit = picker.Pick(o.NCriteria)

	// Graph builds replay the trace from disk so preprocessing is measured
	// uniformly (trace -> graph), as in the paper.
	rmet := trace.NewMetrics(reg)
	replay := func(sink trace.Sink) (time.Duration, error) {
		f, err := os.Open(res.TracePath)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		start := time.Now()
		if err := trace.ReplayWith(p, f, sink, rmet); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}

	if o.WithFP {
		res.FP = fp.NewGraph(p)
		res.FP.SetTelemetry(reg)
		sp = span.Child("fp-build")
		res.FPBuild, err = replay(res.FP)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("bench %s fp build: %w", w.Name, err)
		}
	}
	if o.WithOPT {
		cfg := opt.Full()
		if o.OptConfig != nil {
			cfg = *o.OptConfig
		}
		res.OPT = opt.NewGraph(p, cfg, hot, col.Cuts())
		res.OPT.SetTelemetry(reg)
		sp = span.Child("opt-build")
		res.OPTBuild, err = replay(res.OPT)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("bench %s opt build: %w", w.Name, err)
		}
	}
	if o.WithStages {
		for stage := 0; stage <= 7; stage++ {
			g := opt.NewGraph(p, opt.Stage(stage), hot, col.Cuts())
			if _, err = replay(g); err != nil {
				return nil, fmt.Errorf("bench %s stage %d build: %w", w.Name, stage, err)
			}
			res.Stages = append(res.Stages, g)
		}
	}
	if o.WithLP {
		res.LP = lp.New(p, res.TracePath, tw.Segments())
		res.LP.SetTelemetry(reg)
	}
	return res, nil
}

// writeArtifact writes one -exp runner's records to outPath as indented
// JSON and notes the path on w.
func writeArtifact(w io.Writer, outPath string, records any) error {
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwrote %s\n", outPath)
	return nil
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '/' || c == ' ' {
			c = '_'
		}
		out = append(out, c)
	}
	return string(out)
}

// SliceAll runs every criterion through a slicer, returning total wall
// time, the mean slice size in statements, and accumulated stats.
func SliceAll(s slicing.Slicer, crit []int64) (time.Duration, float64, *slicing.Stats, error) {
	var total time.Duration
	var sizeSum int64
	agg := &slicing.Stats{}
	for _, a := range crit {
		t0 := time.Now()
		sl, st, err := s.Slice(slicing.AddrCriterion(a))
		total += time.Since(t0)
		if err != nil {
			return 0, 0, nil, err
		}
		sizeSum += int64(sl.Len())
		agg.Instances += st.Instances
		agg.LabelProbes += st.LabelProbes
		agg.SegScans += st.SegScans
		agg.SegSkips += st.SegSkips
	}
	if len(crit) == 0 {
		return 0, 0, agg, nil
	}
	return total, float64(sizeSum) / float64(len(crit)), agg, nil
}

// SliceBatch answers every criterion through one batched SliceAll call
// (slicing.MultiSlicer), returning the same quantities as SliceAll: wall
// time, mean slice size, and the batch's aggregate stats.
func SliceBatch(s slicing.MultiSlicer, crit []int64) (time.Duration, float64, *slicing.Stats, error) {
	cs := make([]slicing.Criterion, len(crit))
	for i, a := range crit {
		cs[i] = slicing.AddrCriterion(a)
	}
	t0 := time.Now()
	outs, stats, err := s.SliceAll(cs)
	total := time.Since(t0)
	if err != nil {
		return 0, 0, nil, err
	}
	if len(crit) == 0 {
		return 0, 0, stats, nil
	}
	var sizeSum int64
	for _, sl := range outs {
		sizeSum += int64(sl.Len())
	}
	return total, float64(sizeSum) / float64(len(crit)), stats, nil
}

// Reprofile reruns the profiling pass for a built workload (benchmark
// helper mirroring what Build does internally).
func Reprofile(tb testing.TB, res *Result) ([]*profile.PathProfile, *profile.Cuts) {
	col := profile.NewCollector(res.P)
	if _, err := interp.Run(res.P, interp.Options{Input: res.W.Input, Sink: col}); err != nil {
		tb.Fatal(err)
	}
	return col.HotPaths(1, 0), col.Cuts()
}

// NewOPTGraph constructs a fresh fully-configured OPT graph (benchmark
// helper).
func NewOPTGraph(p *ir.Program, prof []*profile.PathProfile, cuts *profile.Cuts) *opt.Graph {
	return opt.NewGraph(p, opt.Full(), prof, cuts)
}

// NewFPGraph constructs a fresh FP graph (benchmark helper).
func NewFPGraph(p *ir.Program) *fp.Graph { return fp.NewGraph(p) }

// stage6 returns the paper-strict OPT configuration (no adaptive
// extension), with shortcuts enabled.
func stage6() opt.Config {
	c := opt.Stage(6)
	c.Shortcuts = true
	return c
}
