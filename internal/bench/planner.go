package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"dynslice/internal/interp"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/plan"
	"dynslice/internal/slicing/reexec"
	"dynslice/internal/telemetry/querylog"
	"dynslice/internal/telemetry/stats"
)

// PlannerBench is one workload's record in BENCH_planner.json: the
// rare-query comparison the re-execution backend exists for (answer one
// cold criterion without building any graph, against the cheapest path
// that does build one), plus the planner's regret on an interactive
// criterion stream — how much latency its choices cost relative to an
// oracle that always picks the measured-fastest backend.
type PlannerBench struct {
	Name      string `json:"name"`
	NCriteria int    `json:"n_criteria"`

	// ReexecMs answers ONE cold criterion by resuming the interpreter
	// from checkpoints and tracing dependences for the suffix only (best
	// of reps, fresh slicer each rep so nothing is cached).
	ReexecMs float64 `json:"reexec_ms"`
	// ReexecSegScans counts the trace segments that query re-executes
	// (slicing.Stats.SegScans): the re-execution layer's work as a
	// count, which moves only when the code does.
	ReexecSegScans int64 `json:"reexec_seg_scans"`
	// CheapestBuildMs is the cheapest graph path to the same single
	// answer: min over FP and OPT of (trace-replay build + one query).
	CheapestBuildMs float64 `json:"cheapest_build_ms"`
	// ReexecVsBuildSpeedup is CheapestBuildMs over ReexecMs, the two
	// paths timed in one run, which RunPlanner's median floor checks.
	ReexecVsBuildSpeedup float64 `json:"reexec_vs_build_speedup"`

	// PlannerRegret is the median over the criterion stream of
	// (chosen backend's measured latency / fastest backend's measured
	// latency); 1.0 means the planner always picked the winner.
	PlannerRegret float64 `json:"planner_regret"`
	// Chosen counts how many stream queries the planner routed to each
	// backend (diagnostic, not gated).
	Chosen map[string]int `json:"chosen"`

	IdenticalSlices bool `json:"identical_slices"`
}

const plannerReps = 3

// Planner gates (RunPlanner fails when the median across workloads
// breaks them): the rare query must beat the cheapest build path by at
// least minReexecSpeedup, and the planner's median regret must stay
// within maxPlannerRegret of the per-query optimum.
const (
	minReexecSpeedup = 2.0
	maxPlannerRegret = 1.2
)

// RunPlanner measures the re-execution backend and the cost-based
// planner on every workload and writes per-workload records to outPath
// (cmd/experiments -exp planner).
func RunPlanner(w io.Writer, workloads []Workload, outPath string) error {
	header(w, "Planner: cold re-execution vs graph build, and planning regret",
		fmt.Sprintf("%-12s %10s %6s %10s %9s %8s  %s\n",
			"Program", "reexec(ms)", "scans", "build(ms)", "speedup", "regret", "chosen"))
	var out []PlannerBench
	var speedups, regrets []float64
	for _, wl := range workloads {
		res, err := Build(wl, Options{WithFP: true, WithOPT: true, WithLP: true})
		if err != nil {
			return err
		}
		pb, err := measurePlanner(res)
		res.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %10.3f %6d %10.3f %8.1fx %8.2f  %v\n",
			wl.Name, pb.ReexecMs, pb.ReexecSegScans, pb.CheapestBuildMs, pb.ReexecVsBuildSpeedup,
			pb.PlannerRegret, pb.Chosen)
		if !pb.IdenticalSlices {
			return fmt.Errorf("planner %s: backends disagreed on a slice", wl.Name)
		}
		speedups = append(speedups, pb.ReexecVsBuildSpeedup)
		regrets = append(regrets, pb.PlannerRegret)
		out = append(out, pb)
	}
	if med := medianOf(speedups); med < minReexecSpeedup {
		return fmt.Errorf("planner: median reexec-vs-build speedup %.2fx below the %.1fx gate",
			med, minReexecSpeedup)
	}
	if med := medianOf(regrets); med > maxPlannerRegret {
		return fmt.Errorf("planner: median regret %.2f above the %.2f gate",
			med, maxPlannerRegret)
	}
	return writeArtifact(w, outPath, out)
}

func measurePlanner(res *Result) (PlannerBench, error) {
	pb := PlannerBench{Name: res.W.Name, NCriteria: len(res.Crit), Chosen: map[string]int{}}
	if len(res.Crit) == 0 {
		return pb, fmt.Errorf("planner %s: no criteria", res.W.Name)
	}

	// Checkpoints for the re-execution backend: one extra plain run (the
	// profile run a production recording captures them on).
	ck, err := interp.Run(res.P, interp.Options{Input: res.W.Input, CheckpointEvery: 4096})
	if err != nil {
		return pb, err
	}
	mkRx := func() *reexec.Slicer {
		return reexec.New(res.P, res.Segs, reexec.Options{
			Input:       res.W.Input,
			TotalBlocks: res.RunInfo.BlockExecs,
			Checkpoints: ck.Checkpoints,
		})
	}
	rare := slicing.AddrCriterion(res.Crit[0])

	// Rare-query path: fresh re-execution slicer each rep, one answer.
	rxTime := time.Duration(1 << 62)
	var rxSlice *slicing.Slice
	for rep := 0; rep < plannerReps; rep++ {
		rx := mkRx()
		t0 := time.Now()
		sl, st, err := rx.Slice(rare)
		if err != nil {
			return pb, fmt.Errorf("planner %s reexec: %w", res.W.Name, err)
		}
		rxTime = min(rxTime, time.Since(t0))
		rxSlice = sl
		pb.ReexecSegScans = st.SegScans
	}

	// Cheapest build path to the same answer: replay the trace into a
	// fresh graph, then query it once.
	hot, cuts, err := reprofile(res)
	if err != nil {
		return pb, err
	}
	buildTime := time.Duration(1 << 62)
	var buildSlice *slicing.Slice
	for rep := 0; rep < plannerReps; rep++ {
		t0 := time.Now()
		g := NewFPGraph(res.P)
		if err := replayFile(res, g); err != nil {
			return pb, err
		}
		sl, _, err := g.Slice(rare)
		if err != nil {
			return pb, err
		}
		buildTime = min(buildTime, time.Since(t0))
		buildSlice = sl

		t0 = time.Now()
		og := NewOPTGraph(res.P, hot, cuts)
		if err := replayFile(res, og); err != nil {
			return pb, err
		}
		if _, _, err := og.Slice(rare); err != nil {
			return pb, err
		}
		buildTime = min(buildTime, time.Since(t0))
	}
	pb.ReexecMs = ms(rxTime)
	pb.CheapestBuildMs = ms(buildTime)
	if rxTime > 0 {
		pb.ReexecVsBuildSpeedup = float64(buildTime) / float64(rxTime)
	}
	pb.IdenticalSlices = rxSlice.Equal(buildSlice)

	// Planning regret over the interactive stream: every criterion is
	// measured on every live backend, the planner (with warm graphs and
	// live feedback) picks one, and regret is chosen-over-best. The
	// recorder sees exactly what the façade's planned engine would.
	feats := plan.Features{
		TraceBlocks: res.RunInfo.BlockExecs,
		TraceSteps:  res.RunInfo.Steps,
		Segments:    len(res.Segs),
		IRStmts:     len(res.P.Stmts),
	}
	av := plan.Availability{FP: true, OPT: true, LP: true, Reexec: true, FPWarm: true, OPTWarm: true}
	backends := map[string]slicing.Slicer{
		plan.FP:     res.FP,
		plan.OPT:    res.OPT,
		plan.LP:     res.LP,
		plan.Reexec: mkRx(),
	}
	order := []string{plan.FP, plan.OPT, plan.LP, plan.Reexec}
	rec := stats.New()
	var perQuery []float64
	for _, a := range res.Crit {
		c := slicing.AddrCriterion(a)
		times := map[string]time.Duration{}
		slices := map[string]*slicing.Slice{}
		best := time.Duration(1 << 62)
		for _, name := range order {
			t0 := time.Now()
			sl, _, err := backends[name].Slice(c)
			if err != nil {
				return pb, fmt.Errorf("planner %s %s: %w", res.W.Name, name, err)
			}
			times[name] = time.Since(t0)
			slices[name] = sl
			best = min(best, times[name])
		}
		for _, name := range order[1:] {
			if !slices[order[0]].Equal(slices[name]) {
				pb.IdenticalSlices = false
			}
		}
		d := plan.Decide(feats, plan.Shape{Kind: plan.KindSlice, Batch: 1}, av, rec.Snapshot())
		chosen := times[d.Backend]
		rec.Observe(querylog.Record{Backend: d.Backend, Latency: chosen}, 0)
		pb.Chosen[d.Backend]++
		if best > 0 {
			perQuery = append(perQuery, float64(chosen)/float64(best))
		} else {
			perQuery = append(perQuery, 1)
		}
	}
	pb.PlannerRegret = medianOf(perQuery)
	return pb, nil
}

// medianOf returns the median of vals (0 when empty; even length
// averages the middle pair).
func medianOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
