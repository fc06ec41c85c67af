package slicer

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"dynslice/internal/slicing/plan"
)

// TestForwardBackend: a WithForward recording's forward index answers
// every tracked criterion as OPT does, directly, batched, and from the
// planned engine that has it on its ladder. A snapshot hit of the same
// run has no instrumented run and so no forward index: Forward() says
// so, and the planner never offers it.
func TestForwardBackend(t *testing.T) {
	p, err := Compile(lazySrc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	shapes := []plan.Shape{{Kind: plan.KindSlice, Batch: 1}, {Kind: plan.KindBatch, Batch: 16}}
	for _, c := range []struct {
		source string
		snap   SnapshotOptions
	}{
		{"build", SnapshotOptions{Dir: dir, Write: true}},
		{"snapshot", SnapshotOptions{Dir: dir, Read: true}}, // in order: the hit reads what the build wrote
	} {
		t.Run(c.source, func(t *testing.T) {
			rec, err := p.Record(RunOptions{Input: lazyInput, TrackCriteria: 12, WithForward: true, Snapshot: c.snap})
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if rec.Source() != c.source {
				t.Fatalf("source %q, want %q", rec.Source(), c.source)
			}
			crit := rec.Criteria()
			want, err := rec.OPT().SliceAddrs(crit)
			if err != nil {
				t.Fatal(err)
			}
			hasForward := c.source == "build"
			for _, sh := range shapes {
				if ladder := rec.PlanFor(sh).Ladder(); slices.Contains(ladder, plan.Forward) != hasForward {
					t.Fatalf("%+v planned %v; forward available: %t", sh, ladder, hasForward)
				}
			}
			if !hasForward {
				_, err := rec.Forward().SliceAddr(crit[0])
				if !errors.Is(err, errNoForward) || !strings.Contains(err.Error(), "snapshot") {
					t.Fatalf("Forward() on a snapshot hit: %v", err)
				}
				return
			}

			same := func(how string, got []*Slice) {
				t.Helper()
				for i := range want {
					if !got[i].Raw().Equal(want[i].Raw()) {
						t.Fatalf("%s: slice of %d differs from OPT's", how, crit[i])
					}
				}
			}
			var got []*Slice
			for _, a := range crit {
				sl, err := rec.Forward().SliceAddr(a)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, sl)
			}
			same("forward", got)
			batch, err := rec.Forward().SliceAddrs(crit)
			if err != nil {
				t.Fatal(err)
			}
			same("forward batch", batch)
			e := rec.Engine(EngineOptions{CacheSize: -1})
			got = got[:0]
			for _, a := range crit {
				sl, err := e.SliceAddr(a)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, sl)
			}
			same("planned engine", got)
		})
	}
}
