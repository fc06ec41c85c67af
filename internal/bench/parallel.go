package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"dynslice/internal/slicing"
	"dynslice/internal/slicing/fp"
	"dynslice/internal/slicing/opt"
	"dynslice/internal/trace"
)

// ParallelBench is one (workload, GOMAXPROCS) record of the parallel
// engine experiment: pipelined vs sequential graph construction, and the
// paper's 25-criteria experiment answered by one batched SliceAll against
// a sequential per-criterion loop, on both the OPT graph and the
// demand-driven LP slicer.
//
// The sequential baselines (seq_build_ms, opt_seq_slice_ms,
// lp_seq_slice_ms) are always measured pinned to GOMAXPROCS=1 and are
// repeated verbatim on every row of a workload, so each row's speedups
// read directly as "contender at this GOMAXPROCS vs the sequential
// baseline". The contenders run under the row's GOMAXPROCS: the
// pipelined build decodes the trace once and feeds the FP and OPT
// builders each through its own trace.Async, as Record feeds its OPT
// builder, so decoding and both builds can use up to three procs; the
// batched SliceAll is one loop on the calling goroutine either way, so
// its row-to-row spread is the runtime's (the garbage collector runs
// beside it) and the host's noise. Batching wins on one proc — LP
// shares one backward scan, OPT shares the visited state and memoized
// expansions across criteria. See docs/PERFORMANCE.md ("Batch
// scheduling") for how to read these numbers.
type ParallelBench struct {
	Name       string `json:"name"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NCriteria  int    `json:"n_criteria"`

	SeqBuildMs   float64 `json:"seq_build_ms"`       // FP then OPT, one replay each, GOMAXPROCS=1
	PipeBuildMs  float64 `json:"pipelined_build_ms"` // both graphs, one shared pipelined pass
	BuildSpeedup float64 `json:"build_speedup"`

	OPTSeqMs      float64 `json:"opt_seq_slice_ms"`   // criterion loop under GOMAXPROCS=1
	OPTBatchMs    float64 `json:"opt_batch_slice_ms"` // one SliceAll call
	OPTBatchSpeed float64 `json:"opt_batch_speedup"`  // opt seq / batch

	LPSeqMs      float64 `json:"lp_seq_slice_ms"`   // criterion loop under GOMAXPROCS=1
	LPBatchMs    float64 `json:"lp_batch_slice_ms"` // one SliceAll (one shared scan)
	LPBatchSpeed float64 `json:"lp_batch_speedup"`  // lp seq / batch

	// Speedup is the headline: the batched+parallel path against the
	// sequential baseline, taken where batching is load-bearing (LP).
	Speedup float64 `json:"speedup"`

	IdenticalSlices bool `json:"identical_slices"`
}

const parallelReps = 3

// procSweep returns the GOMAXPROCS settings to measure: 1, 4, and the
// machine's CPU count, deduplicated and ascending. GOMAXPROCS above
// NumCPU is still measured — it exercises the pipelined build's
// oversubscription behavior even when the hardware cannot run its
// goroutines simultaneously.
func procSweep() []int {
	set := map[int]bool{1: true, 4: true, runtime.NumCPU(): true}
	var ps []int
	for p := range set {
		ps = append(ps, p)
	}
	sort.Ints(ps)
	return ps
}

// RunParallel measures the parallel slicing engine against its sequential
// baselines across a GOMAXPROCS sweep and writes one record per
// (workload, setting) to outPath (cmd/experiments -exp parallel).
func RunParallel(w io.Writer, workloads []Workload, outPath string) error {
	header(w, "Parallel engine: pipelined builds and batched slicing, GOMAXPROCS sweep",
		fmt.Sprintf("%-12s %5s %9s %9s %10s %10s %10s %10s %8s\n",
			"Program", "P", "build", "build|", "opt", "opt[]", "lp", "lp[]", "speedup"))
	origProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(origProcs)
	var out []ParallelBench
	for _, wl := range workloads {
		res, err := Build(wl, Options{WithFP: true, WithOPT: true, WithLP: true, SegBlocks: 512})
		if err != nil {
			return err
		}
		rows, err := measureParallel(res)
		res.Close()
		if err != nil {
			return err
		}
		for _, pb := range rows {
			fmt.Fprintf(w, "%-12s %5d %7.0fms %7.0fms %8.1fms %8.1fms %8.1fms %8.1fms %7.2fx\n",
				wl.Name, pb.GOMAXPROCS, pb.SeqBuildMs, pb.PipeBuildMs,
				pb.OPTSeqMs, pb.OPTBatchMs,
				pb.LPSeqMs, pb.LPBatchMs, pb.Speedup)
			if !pb.IdenticalSlices {
				return fmt.Errorf("parallel %s (GOMAXPROCS=%d): batched slices diverge from sequential", wl.Name, pb.GOMAXPROCS)
			}
		}
		out = append(out, rows...)
	}
	if outPath != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s\n", outPath)
	}
	return nil
}

// measureParallel produces one ParallelBench row per GOMAXPROCS setting.
// The sequential baselines are measured once, pinned to one proc, and
// shared by every row.
func measureParallel(res *Result) ([]ParallelBench, error) {
	hot, cuts, err := reprofile(res)
	if err != nil {
		return nil, err
	}

	// Sequential build baseline: two plain replays (FP then OPT), pinned.
	var seqBuild time.Duration
	{
		old := runtime.GOMAXPROCS(1)
		seqBuild = time.Duration(1 << 62)
		for rep := 0; rep < parallelReps; rep++ {
			t0 := time.Now()
			fpg := fp.NewGraph(res.P)
			if err := replayFile(res, fpg); err != nil {
				runtime.GOMAXPROCS(old)
				return nil, err
			}
			og := opt.NewGraph(res.P, opt.Full(), hot, cuts)
			if err := replayFile(res, og); err != nil {
				runtime.GOMAXPROCS(old)
				return nil, err
			}
			seqBuild = min(seqBuild, time.Since(t0))
		}
		runtime.GOMAXPROCS(old)
	}

	// Sequential slicing baselines. Warm up once so the lazily memoized
	// shortcut closures don't bias whichever contender runs first.
	crit := res.Crit
	want, err := sliceLoop(res.OPT, crit)
	if err != nil {
		return nil, err
	}
	optSeq, optSlices, err := timeSliceLoopPinned(res.OPT, crit, parallelReps)
	if err != nil {
		return nil, err
	}
	// The LP sequential loop re-scans the trace per criterion, so one
	// timed pass suffices (and keeps the experiment tractable).
	lpSeq, lpSlices, err := timeSliceLoopPinned(res.LP, crit, 1)
	if err != nil {
		return nil, err
	}

	var rows []ParallelBench
	for _, procs := range procSweep() {
		old := runtime.GOMAXPROCS(procs)
		pb := ParallelBench{Name: res.W.Name, GOMAXPROCS: procs, NCriteria: len(crit)}
		pb.SeqBuildMs = ms(seqBuild)
		pb.OPTSeqMs = ms(optSeq)
		pb.LPSeqMs = ms(lpSeq)

		pipeBuild := time.Duration(1 << 62)
		for rep := 0; rep < parallelReps; rep++ {
			t0 := time.Now()
			err := ReplayPipelined(res, fp.NewGraph(res.P), opt.NewGraph(res.P, opt.Full(), hot, cuts))
			if err != nil {
				runtime.GOMAXPROCS(old)
				return nil, err
			}
			pipeBuild = min(pipeBuild, time.Since(t0))
		}
		pb.PipeBuildMs = ms(pipeBuild)
		pb.BuildSpeedup = ratio(seqBuild, pipeBuild)

		optBatch, optBatchSlices, err := timeSliceBatch(res.OPT, crit, parallelReps)
		if err != nil {
			runtime.GOMAXPROCS(old)
			return nil, err
		}
		pb.OPTBatchMs = ms(optBatch)
		pb.OPTBatchSpeed = ratio(optSeq, optBatch)

		lpBatch, lpBatchSlices, err := timeSliceBatch(res.LP, crit, parallelReps)
		if err != nil {
			runtime.GOMAXPROCS(old)
			return nil, err
		}
		pb.LPBatchMs = ms(lpBatch)
		pb.LPBatchSpeed = ratio(lpSeq, lpBatch)
		pb.Speedup = pb.LPBatchSpeed

		pb.IdenticalSlices = true
		for i := range want {
			for _, got := range [][]*slicing.Slice{optSlices, optBatchSlices, lpSlices, lpBatchSlices} {
				if !want[i].Equal(got[i]) {
					pb.IdenticalSlices = false
				}
			}
		}
		rows = append(rows, pb)
		runtime.GOMAXPROCS(old)
	}
	return rows, nil
}

// replayFile replays the recorded trace into one sink.
func replayFile(res *Result, sink trace.Sink) error {
	f, err := os.Open(res.TracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.Replay(res.P, f, sink)
}

// ReplayPipelined replays the recorded trace once into every builder,
// each wrapped in its own trace.Async as Record wraps its OPT builder, so
// decoding and the builds overlap (the pipelined build of
// BENCH_parallel.json and BenchmarkBuild).
func ReplayPipelined(res *Result, builders ...trace.Sink) error {
	sinks := make(trace.Multi, len(builders))
	for i, b := range builders {
		a := trace.NewAsync(b, trace.PipelineConfig{})
		defer a.Close() // reclaims the worker if the replay fails before End
		sinks[i] = a
	}
	return replayFile(res, sinks)
}

// sliceLoop is the sequential baseline: one Slice call per criterion.
func sliceLoop(s slicing.Slicer, crit []int64) ([]*slicing.Slice, error) {
	outs := make([]*slicing.Slice, len(crit))
	for i, a := range crit {
		sl, _, err := s.Slice(slicing.AddrCriterion(a))
		if err != nil {
			return nil, err
		}
		outs[i] = sl
	}
	return outs, nil
}

// timeSliceLoopPinned times the sequential loop under GOMAXPROCS=1,
// best of reps.
func timeSliceLoopPinned(s slicing.Slicer, crit []int64, reps int) (time.Duration, []*slicing.Slice, error) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	best := time.Duration(1 << 62)
	var outs []*slicing.Slice
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		o, err := sliceLoop(s, crit)
		if err != nil {
			return 0, nil, err
		}
		best = min(best, time.Since(t0))
		outs = o
	}
	return best, outs, nil
}

// timeSliceBatch times one batched SliceAll, best of reps.
func timeSliceBatch(s slicing.MultiSlicer, crit []int64, reps int) (time.Duration, []*slicing.Slice, error) {
	cs := make([]slicing.Criterion, len(crit))
	for i, a := range crit {
		cs[i] = slicing.AddrCriterion(a)
	}
	best := time.Duration(1 << 62)
	var outs []*slicing.Slice
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		o, _, err := s.SliceAll(cs)
		if err != nil {
			return 0, nil, err
		}
		best = min(best, time.Since(t0))
		outs = o
	}
	return best, outs, nil
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}
