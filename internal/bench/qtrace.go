package bench

import (
	"fmt"
	"io"
	"time"

	slicer "dynslice"
	"dynslice/internal/telemetry/qtrace"
	"dynslice/internal/telemetry/stats"
)

// QtraceBench is one workload's record in BENCH_qtrace.json: the
// per-query causal tracer's capture statistics over the interactive
// query pattern, plus the wall-time cost of running the same workload
// with the tracer attached versus without.
type QtraceBench struct {
	Name          string  `json:"name"`
	Queries       int     `json:"queries"` // traces started (record + every query)
	Retained      int     `json:"retained"`
	RetainedRate  float64 `json:"retained_rate"`
	SampleN       int     `json:"sample_n"`
	SpansRetained int     `json:"spans_retained"` // spans across all retained traces
	Exemplars     int     `json:"exemplars"`      // histogram buckets carrying a trace link
	PlainMs       float64 `json:"plain_ms"`
	TracedMs      float64 `json:"traced_ms"`
	OverheadRatio float64 `json:"traced_overhead_ratio"`
}

// qtraceSampleN is the bench's 1-in-N sampling rate. The policy uses
// ONLY the deterministic sampler (no slow threshold, no cache-miss or
// plan-divergence triggers) and pinned-backend engines, so the retained
// set is a pure function of the trace-ID stream — identical on every
// run and every machine, which is what lets bench-check gate
// retained_rate with zero noise allowance.
const qtraceSampleN = 4

// RunQtrace drives each workload through the per-query causal tracer:
// one pass without a tracer (the overhead baseline), one with tracing
// attached under a sampler-only retention policy. It verifies the
// tail-based sampler retained exactly the traces the deterministic
// 1-in-N predicts, that every retained span tree is well-formed, and
// writes per-workload capture/overhead records to outPath
// (cmd/experiments -exp qtrace -> BENCH_qtrace.json).
func RunQtrace(w io.Writer, workloads []Workload, outPath string) error {
	header(w, "Per-query causal tracing: tail-sampling determinism and overhead",
		fmt.Sprintf("%-12s %8s %9s %8s %8s %10s %10s %9s\n",
			"Program", "queries", "retained", "rate", "spans", "plain ms", "traced ms", "overhead"))
	var out []QtraceBench
	for _, wl := range workloads {
		qb, err := runQtraceOne(wl)
		if err != nil {
			return fmt.Errorf("qtrace %s: %w", wl.Name, err)
		}
		fmt.Fprintf(w, "%-12s %8d %9d %8.3f %8d %10.2f %10.2f %8.2fx\n",
			wl.Name, qb.Queries, qb.Retained, qb.RetainedRate, qb.SpansRetained,
			qb.PlainMs, qb.TracedMs, qb.OverheadRatio)
		out = append(out, *qb)
	}
	return writeArtifact(w, outPath, out)
}

func runQtraceOne(wl Workload) (*QtraceBench, error) {
	plain, err := qtracePass(wl, nil, nil)
	if err != nil {
		return nil, err
	}
	pol := qtrace.Policy{SampleN: qtraceSampleN, Seed: 1, OnError: true}
	qtr := qtrace.New(1024, pol)
	qst := stats.New()
	traced, err := qtracePass(wl, qtr, qst)
	if err != nil {
		return nil, err
	}

	st := qtr.Stats()
	if st.Started == 0 {
		return nil, fmt.Errorf("no traces started")
	}
	if st.ByError != 0 {
		return nil, fmt.Errorf("%d queries errored (retained by OnError)", st.ByError)
	}
	// The retention decision must match the sampler's prediction exactly:
	// trace IDs are minted 1..Started and the policy has no other
	// trigger, so any divergence means tail sampling lost determinism.
	var want uint64
	for id := uint64(1); id <= st.Started; id++ {
		if qtrace.Sampled(pol.Seed, qtrace.TraceID(id), pol.SampleN) {
			want++
		}
	}
	if st.Retained != want {
		return nil, fmt.Errorf("sampler not deterministic: retained %d traces, 1-in-%d predicts %d",
			st.Retained, qtraceSampleN, want)
	}
	if want == 0 {
		return nil, fmt.Errorf("sampler retained nothing over %d queries — workload too small to gate", st.Started)
	}

	spans := 0
	for _, t := range qtr.Recent(0) {
		ex := t.Export()
		if t.Reason() != qtrace.ReasonSample {
			return nil, fmt.Errorf("trace %s retained for %q, want %q", ex.TraceID, t.Reason(), qtrace.ReasonSample)
		}
		if len(ex.Spans) == 0 || ex.Spans[0].Parent != 0 {
			return nil, fmt.Errorf("trace %s: malformed span tree", ex.TraceID)
		}
		for _, sp := range ex.Spans[1:] {
			if sp.Parent <= 0 || sp.Parent >= sp.ID {
				return nil, fmt.Errorf("trace %s: span %d has bad parent %d", ex.TraceID, sp.ID, sp.Parent)
			}
		}
		spans += len(ex.Spans)
	}
	exemplars := 0
	for _, bs := range qst.Snapshot().Backends {
		exemplars += len(bs.Exemplars)
	}

	qb := &QtraceBench{
		Name:          wl.Name,
		Queries:       int(st.Started),
		Retained:      int(st.Retained),
		RetainedRate:  float64(st.Retained) / float64(st.Started),
		SampleN:       qtraceSampleN,
		SpansRetained: spans,
		Exemplars:     exemplars,
		PlainMs:       ms(plain),
		TracedMs:      ms(traced),
	}
	if plain > 0 {
		qb.OverheadRatio = float64(traced) / float64(plain)
	}
	return qb, nil
}

// qtracePass replays the interactive query pattern (the same sequence
// runQueriesOne uses: per-backend batched query, repeat cached singles,
// observed queries on OPT) with the given tracer attached. Pinned
// backends keep plan == backend on every query, so the pass never
// triggers plan-divergence retention. Returns the wall time from
// Record through the last query.
func qtracePass(wl Workload, qtr *qtrace.Tracer, qst *stats.Recorder) (time.Duration, error) {
	prog, err := slicer.CompileWith(wl.Src, nil)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	rec, err := prog.Record(slicer.RunOptions{
		Input:         wl.Input,
		QueryTrace:    qtr,
		QueryStats:    qst,
		TrackCriteria: 25,
	})
	if err != nil {
		return 0, err
	}
	defer rec.Close()
	crit := rec.Criteria()
	if len(crit) == 0 {
		return 0, fmt.Errorf("no criteria tracked")
	}
	repeat := queriesRepeat
	if repeat > len(crit) {
		repeat = len(crit)
	}
	for _, s := range []*slicer.Slicer{rec.FP(), rec.OPT(), rec.LP()} {
		eng := s.Engine(slicer.EngineOptions{})
		if _, err := eng.SliceAddrs(crit); err != nil {
			return 0, fmt.Errorf("%s batch: %w", s.Name(), err)
		}
		for _, a := range crit[:repeat] {
			if _, err := eng.SliceAddr(a); err != nil {
				return 0, fmt.Errorf("%s requery: %w", s.Name(), err)
			}
		}
	}
	optS := rec.OPT()
	for _, a := range crit[:repeat] {
		if _, err := optS.ExplainAddr(a); err != nil {
			return 0, fmt.Errorf("OPT explain: %w", err)
		}
	}
	return time.Since(t0), nil
}
