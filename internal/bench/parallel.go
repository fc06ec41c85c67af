package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"dynslice/internal/slicing"
	"dynslice/internal/trace"
)

// ParallelBench is one workload's record of the batching experiment: the
// paper's 25-criteria experiment answered by one batched SliceAll against
// a per-criterion loop, on both the OPT graph and the demand-driven LP
// slicer. Both contenders are one loop on the calling goroutine, at the
// process's GOMAXPROCS, so a speedup above 1× comes from batching alone:
// LP shares one backward scan across the criteria, OPT shares the
// visited state and memoized expansions. See docs/PERFORMANCE.md
// ("Batch scheduling") for how to read these numbers.
type ParallelBench struct {
	Name      string `json:"name"`
	NCriteria int    `json:"n_criteria"`

	OPTSeqMs      float64 `json:"opt_seq_slice_ms"`   // one Slice per criterion
	OPTBatchMs    float64 `json:"opt_batch_slice_ms"` // one SliceAll call
	OPTBatchSpeed float64 `json:"opt_batch_speedup"`  // opt seq / batch

	LPSeqMs      float64 `json:"lp_seq_slice_ms"`   // one Slice per criterion, each re-scanning the trace
	LPBatchMs    float64 `json:"lp_batch_slice_ms"` // one SliceAll (one shared scan)
	LPBatchSpeed float64 `json:"lp_batch_speedup"`  // lp seq / batch

	IdenticalSlices bool `json:"identical_slices"`
}

const parallelReps = 3

// RunParallel measures batched slicing against the per-criterion loop
// and writes one record per workload to outPath (cmd/experiments -exp
// parallel).
func RunParallel(w io.Writer, workloads []Workload, outPath string) error {
	header(w, "Batched slicing: one SliceAll vs a per-criterion loop",
		fmt.Sprintf("%-12s %10s %10s %8s %10s %10s %8s\n",
			"Program", "opt", "opt[]", "opt-x", "lp", "lp[]", "lp-x"))
	var out []ParallelBench
	for _, wl := range workloads {
		res, err := Build(wl, Options{WithOPT: true, WithLP: true, SegBlocks: 512})
		if err != nil {
			return err
		}
		pb, err := measureParallel(res)
		res.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %8.1fms %8.1fms %7.2fx %8.1fms %8.1fms %7.2fx\n",
			wl.Name, pb.OPTSeqMs, pb.OPTBatchMs, pb.OPTBatchSpeed,
			pb.LPSeqMs, pb.LPBatchMs, pb.LPBatchSpeed)
		if !pb.IdenticalSlices {
			return fmt.Errorf("parallel %s: batched slices diverge from sequential", wl.Name)
		}
		out = append(out, pb)
	}
	return writeArtifact(w, outPath, out)
}

func measureParallel(res *Result) (ParallelBench, error) {
	crit := res.Crit
	pb := ParallelBench{Name: res.W.Name, NCriteria: len(crit)}
	cs := make([]slicing.Criterion, len(crit))
	for i, a := range crit {
		cs[i] = slicing.AddrCriterion(a)
	}
	loop := func(s slicing.Slicer) func() ([]*slicing.Slice, error) {
		return func() ([]*slicing.Slice, error) { return sliceLoop(s, crit) }
	}
	batch := func(s slicing.MultiSlicer) func() ([]*slicing.Slice, error) {
		return func() ([]*slicing.Slice, error) {
			outs, _, err := s.SliceAll(cs)
			return outs, err
		}
	}

	// Warm up once so the lazily memoized shortcut closures don't bias
	// whichever contender runs first.
	want, err := sliceLoop(res.OPT, crit)
	if err != nil {
		return pb, err
	}
	optSeq, optSlices, err := bestOf(parallelReps, loop(res.OPT))
	if err != nil {
		return pb, err
	}
	// The LP loop re-scans the trace per criterion, so one timed pass
	// suffices (and keeps the experiment tractable).
	lpSeq, lpSlices, err := bestOf(1, loop(res.LP))
	if err != nil {
		return pb, err
	}
	optBatch, optBatchSlices, err := bestOf(parallelReps, batch(res.OPT))
	if err != nil {
		return pb, err
	}
	lpBatch, lpBatchSlices, err := bestOf(parallelReps, batch(res.LP))
	if err != nil {
		return pb, err
	}
	pb.OPTSeqMs, pb.OPTBatchMs, pb.OPTBatchSpeed = ms(optSeq), ms(optBatch), ratio(optSeq, optBatch)
	pb.LPSeqMs, pb.LPBatchMs, pb.LPBatchSpeed = ms(lpSeq), ms(lpBatch), ratio(lpSeq, lpBatch)

	pb.IdenticalSlices = true
	for i := range want {
		for _, got := range [][]*slicing.Slice{optSlices, optBatchSlices, lpSlices, lpBatchSlices} {
			if !want[i].Equal(got[i]) {
				pb.IdenticalSlices = false
			}
		}
	}
	return pb, nil
}

// bestOf runs f reps times and returns its fastest time and the slices
// of its last run.
func bestOf(reps int, f func() ([]*slicing.Slice, error)) (time.Duration, []*slicing.Slice, error) {
	best := time.Duration(1 << 62)
	var outs []*slicing.Slice
	for range reps {
		t0 := time.Now()
		o, err := f()
		if err != nil {
			return 0, nil, err
		}
		best = min(best, time.Since(t0))
		outs = o
	}
	return best, outs, nil
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

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}
