package fuzzgen

import (
	"errors"
	"time"

	"dynslice/internal/slicing"
	"dynslice/internal/slicing/plan"
	"dynslice/internal/telemetry/querylog"
	"dynslice/internal/telemetry/stats"
)

// errPlanExhausted reports that the plan variant ran out of ladder rungs
// without an answer (only reachable when every backend faults).
var errPlanExhausted = errors.New("fuzzgen: plan variant exhausted its fallback ladder")

// planVariant is the differential matrix's cost-based planner entry:
// each criterion is dispatched to whichever backend plan.Decide picks,
// and every query's observed latency is fed back into a live workload
// recorder, so decisions evolve over the criterion set exactly as they
// do behind the façade's planned engine. The correctness claim under
// test: whatever mix of backends the planner routes through, every
// answer still equals the oracle slice.
type planVariant struct {
	feats    plan.Features
	av       plan.Availability
	backends map[string]slicing.Slicer
	stats    *stats.Recorder
}

func (pv *planVariant) Slice(c slicing.Criterion) (*slicing.Slice, *slicing.Stats, error) {
	d := plan.Decide(pv.feats, plan.Shape{Kind: plan.KindSlice, Batch: 1}, pv.av, pv.stats.Snapshot())
	lastErr := errPlanExhausted
	for _, name := range append([]string{d.Backend}, d.Fallback...) {
		s := pv.backends[name]
		if s == nil {
			continue
		}
		t0 := time.Now()
		sl, st, err := s.Slice(c)
		pv.stats.Observe(querylog.Record{Backend: name, Latency: time.Since(t0), Err: querylog.Classify(err)}, 0)
		if err == nil {
			return sl, st, nil
		}
		if querylog.Classify(err) == "bad_criterion" {
			return nil, nil, err
		}
		lastErr = err
	}
	return nil, nil, lastErr
}
