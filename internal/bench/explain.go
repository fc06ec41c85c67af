package bench

import (
	"fmt"
	"io"
	"time"

	"dynslice/internal/slicing"
	"dynslice/internal/slicing/explain"
)

// ExplainAlg aggregates one algorithm's observed-query profiles over a
// workload's full criterion set: how many dependence edges its traversals
// resolved explicitly (a stored dynamic label) versus inferred them from
// static structure (OPT-1/2/4/5 and the adaptive extension) versus
// collapsed them through shortcuts. The explicit/inferred split is the
// measurable counterpart of the paper's Table 4 accounting: every
// inferred resolution is a label the compacted graph never had to store.
type ExplainAlg struct {
	Profile     *explain.Profile `json:"profile"`
	ExplicitPct float64          `json:"explicit_pct"`
	InferredPct float64          `json:"inferred_pct"`
	SliceMs     float64          `json:"slice_ms"`
}

// ExplainBench is one workload's record in BENCH_explain.json.
type ExplainBench struct {
	Name      string     `json:"name"`
	NCriteria int        `json:"n_criteria"`
	FP        ExplainAlg `json:"fp"`
	OPT       ExplainAlg `json:"opt"`
	LP        ExplainAlg `json:"lp"`
}

// explainAll runs every criterion through s as an observed query,
// summing the per-query profiles.
func explainAll(s slicing.Explainer, crit []int64) (ExplainAlg, error) {
	agg := explain.NewRecorder().Profile() // zero profile with ByKind allocated
	var total time.Duration
	for _, a := range crit {
		rec := explain.NewRecorder()
		t0 := time.Now()
		sl, _, err := s.SliceObserved(slicing.AddrCriterion(a), rec)
		d := time.Since(t0)
		if err != nil {
			return ExplainAlg{}, err
		}
		total += d
		p := rec.Profile()
		p.SliceStmts = sl.Len()
		p.Elapsed = d
		agg.Add(p)
	}
	out := ExplainAlg{Profile: agg, SliceMs: ms(total)}
	if n := agg.Explicit + agg.Inferred; n > 0 {
		out.ExplicitPct = 100 * float64(agg.Explicit) / float64(n)
		out.InferredPct = 100 * float64(agg.Inferred) / float64(n)
	}
	return out, nil
}

// RunExplain profiles observed queries on FP, OPT, and LP over every
// workload and writes per-workload records to outPath (cmd/experiments
// -exp explain). It fails if any workload's OPT traversals report zero
// inferred edges — that would mean the compaction optimizations
// contributed nothing, i.e. the provenance instrumentation (or the
// optimizations themselves) regressed.
func RunExplain(w io.Writer, workloads []Workload, outPath string) error {
	header(w, "Observed queries: explicit vs inferred dependence resolutions",
		fmt.Sprintf("%-12s %6s %10s %10s %10s %8s %8s %10s\n",
			"Program", "crit", "opt-edges", "explicit", "inferred", "expl%", "infr%", "shortcut"))
	var out []ExplainBench
	for _, wl := range workloads {
		res, err := Build(wl, Options{WithFP: true, WithOPT: true, WithLP: true})
		if err != nil {
			return err
		}
		eb := ExplainBench{Name: wl.Name, NCriteria: len(res.Crit)}
		if eb.FP, err = explainAll(res.FP, res.Crit); err == nil {
			if eb.OPT, err = explainAll(res.OPT, res.Crit); err == nil {
				eb.LP, err = explainAll(res.LP, res.Crit)
			}
		}
		res.Close()
		if err != nil {
			return fmt.Errorf("explain %s: %w", wl.Name, err)
		}
		op := eb.OPT.Profile
		fmt.Fprintf(w, "%-12s %6d %10d %10d %10d %7.1f%% %7.1f%% %10d\n",
			wl.Name, eb.NCriteria, op.Edges, op.Explicit, op.Inferred,
			eb.OPT.ExplicitPct, eb.OPT.InferredPct, op.Shortcut)
		if op.Inferred == 0 {
			return fmt.Errorf("explain %s: OPT reported zero inferred edges over %d criteria (%d edges total) — inference instrumentation regressed",
				wl.Name, eb.NCriteria, op.Edges)
		}
		out = append(out, eb)
	}
	return writeArtifact(w, outPath, out)
}
