package slicer

import (
	"errors"
	"strings"
	"testing"

	"dynslice/internal/slicing/fp"
	"dynslice/internal/slicing/opt"
	"dynslice/internal/slicing/plan"
	"dynslice/internal/slicing/reexec"
	"dynslice/internal/telemetry/querylog"
)

const ladderSrc = `
var acc = 0;
var spin = 0;

func bump(v) {
	return v + 1;
}

func main() {
	var i = 0;
	while (i < 40) {
		spin = bump(spin);
		acc = acc + spin;
		i = i + 1;
	}
	print(acc);
}`

func ladderRecording(t *testing.T) (*Recording, *querylog.Log) {
	t.Helper()
	p, err := Compile(ladderSrc)
	if err != nil {
		t.Fatal(err)
	}
	qlog := querylog.New(256)
	rec, err := p.Record(RunOptions{QueryLog: qlog, DeferGraphs: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rec.Close)
	return rec, qlog
}

// TestPlannedFallbackLadder breaks the planner's first choice from the
// inside — the re-execution backend is rebuilt over an empty summary
// index, so every query it sees fails with a classified summary error —
// and checks the dispatch ladder promotes the next backend: the query
// still succeeds, with the audit record showing the original plan, the
// answering backend, and the fallback cause.
func TestPlannedFallbackLadder(t *testing.T) {
	rec, qlog := ladderRecording(t)
	addr, err := rec.p.GlobalAddr("acc")
	if err != nil {
		t.Fatal(err)
	}
	want, err := rec.LP().SliceAddr(addr)
	if err != nil {
		t.Fatal(err)
	}

	// The cold-start plan must actually pick reexec, or the tampering
	// below would never be exercised.
	d := rec.PlanFor(plan.Shape{Kind: plan.KindSlice, Batch: 1})
	if d.Backend != plan.Reexec {
		t.Fatalf("cold plan chose %q, want %q (%s)", d.Backend, plan.Reexec, d.Reason)
	}

	// Tamper: an empty segment index over a non-empty trace fails
	// validation on Open with a classified summary error.
	rec.reexecS = reexec.New(rec.p.ir, nil, reexec.Options{
		Input:       rec.input,
		MaxSteps:    rec.maxSteps,
		TotalBlocks: rec.totalBlocks,
	})

	e := rec.Engine(EngineOptions{CacheSize: -1})
	sl, err := e.SliceAddr(addr)
	if err != nil {
		t.Fatalf("planned query did not survive a backend fault: %v", err)
	}
	if !sl.Raw().Equal(want.Raw()) {
		t.Fatal("fallback answer diverges from the LP baseline")
	}

	var promoted bool
	for _, r := range qlog.Recent(0) {
		if r.CacheHit || r.Err != "" || r.Addr != addr || r.Plan == "" {
			continue
		}
		promoted = true
		if r.Plan != plan.Reexec {
			t.Fatalf("audit record plans %q, want %q", r.Plan, plan.Reexec)
		}
		if r.Backend == plan.Reexec {
			t.Fatalf("broken backend %q still answered", r.Backend)
		}
		if !strings.Contains(r.PlanReason, "fallback from reexec") {
			t.Fatalf("plan reason %q does not name the fallback cause", r.PlanReason)
		}
	}
	if !promoted {
		t.Fatal("no successful planned record found in the query log")
	}
}

// TestPlannedBadCriterionTerminal: a criterion no backend can answer is
// terminal — the dispatcher must not walk the ladder retrying an
// address that every backend rejects identically.
func TestPlannedBadCriterionTerminal(t *testing.T) {
	rec, qlog := ladderRecording(t)
	e := rec.Engine(EngineOptions{CacheSize: -1})
	const bogus = int64(1) << 40
	if _, err := e.SliceAddr(bogus); err == nil {
		t.Fatal("bogus criterion did not error")
	} else if querylog.Classify(err) != "bad_criterion" {
		t.Fatalf("error not classified as bad_criterion: %v", err)
	}
	var attempts int
	for _, r := range qlog.Recent(0) {
		if r.Addr == bogus {
			attempts++
		}
	}
	if attempts > 1 {
		t.Fatalf("bad criterion retried %d times across the ladder", attempts)
	}
}

// TestPlannedNoBackend: with every backend gone the planned engine
// reports unavailability instead of panicking. A graph backend is gone
// once its lazy build has failed.
func TestPlannedNoBackend(t *testing.T) {
	rec, _ := ladderRecording(t)
	addr, err := rec.p.GlobalAddr("acc")
	if err != nil {
		t.Fatal(err)
	}
	gone := errors.New("build failed")
	rec.fpG.done.Store(&graphBuild[fp.Graph]{err: gone})
	rec.optG.done.Store(&graphBuild[opt.Graph]{err: gone})
	rec.lpS = nil
	rec.reexecS = nil
	rec.fwd = nil
	e := rec.Engine(EngineOptions{CacheSize: -1})
	if _, err := e.SliceAddr(addr); err != errNoBackend {
		t.Fatalf("err = %v, want errNoBackend", err)
	}
}
