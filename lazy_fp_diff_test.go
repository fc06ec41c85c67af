package slicer_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	slicer "dynslice"
	"dynslice/internal/bench"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/explain"
)

// diffPrograms are the differential subjects: the six fuzz corpus
// programs, on the input the corpus fuzz target seeds them with, and the
// named bench workloads.
func diffPrograms(t *testing.T, workloads ...string) []bench.Workload {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("internal", "fuzzgen", "testdata", "corpus", "*.minic"))
	if err != nil || len(paths) != 6 {
		t.Fatalf("corpus programs %v (err %v), want six", paths, err)
	}
	var out []bench.Workload
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, bench.Workload{
			Name:  strings.TrimSuffix(filepath.Base(path), ".minic"),
			Src:   string(src),
			Input: []int64{6, 3, 9, 4, 1},
		})
	}
	for _, name := range workloads {
		w, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("no bench workload %s", name)
		}
		out = append(out, w)
	}
	return out
}

// TestLazyFPMatchesEager: FP built lazily by a re-run — on a
// trace-backed recording and on a snapshot-loaded one — answers every
// tracked criterion exactly like OPT and like an FP that the bench
// harness built from the same run's trace, and its observed queries
// attribute edges exactly as that eager graph's do (checked on the
// first explainCriteria criteria: observed FP queries are the slow
// part).
func TestLazyFPMatchesEager(t *testing.T) {
	for _, w := range diffPrograms(t, "099.go", "126.gcc", "255.vortex") {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			eager, err := bench.Build(w, bench.Options{WithFP: true})
			if err != nil {
				t.Fatal(err)
			}
			defer eager.Close()
			p, err := slicer.Compile(w.Src)
			if err != nil {
				t.Fatal(err)
			}
			o := slicer.RunOptions{
				Input: w.Input, TrackCriteria: 16,
				Snapshot: slicer.SnapshotOptions{Dir: t.TempDir(), Read: true, Write: true},
			}
			for _, source := range []string{"build", "snapshot"} {
				rec, err := p.Record(o)
				if err != nil {
					t.Fatal(err)
				}
				defer rec.Close()
				if rec.Source() != source {
					t.Fatalf("source %q, want %q", rec.Source(), source)
				}
				crit := rec.Criteria()
				if len(crit) == 0 {
					t.Fatal("no tracked criteria")
				}
				got, err := rec.FP().SliceAddrs(crit)
				if err != nil {
					t.Fatal(err)
				}
				viaOPT, err := rec.OPT().SliceAddrs(crit)
				if err != nil {
					t.Fatal(err)
				}
				cs := make([]slicing.Criterion, len(crit))
				for k, a := range crit {
					cs[k] = slicing.AddrCriterion(a)
				}
				want, _, err := eager.FP.SliceAll(cs)
				if err != nil {
					t.Fatal(err)
				}
				for k, a := range crit {
					if !got[k].Raw().Equal(want[k]) || !viaOPT[k].Raw().Equal(want[k]) {
						t.Fatalf("%s: address %d: lazy FP, OPT and eager FP disagree", source, a)
					}
					if k >= explainCriteria {
						continue
					}
					ex, err := rec.FP().ExplainAddr(a)
					if err != nil {
						t.Fatal(err)
					}
					xr := explain.NewRecorder()
					if _, _, err := eager.FP.SliceObserved(cs[k], xr); err != nil {
						t.Fatal(err)
					}
					if lazy, eag := attribution(ex.Profile), attribution(xr.Profile()); !reflect.DeepEqual(lazy, eag) {
						t.Fatalf("%s: address %d: lazy FP attributes %+v, eager FP %+v", source, a, lazy, eag)
					}
				}
			}
		})
	}
}

const explainCriteria = 2

// TestAsyncOPTMatchesInlineBuild: the OPT graph that Record builds
// through its trace.Async worker and the one a DeferGraphs recording
// builds by re-running the program straight into the builder serialize
// to the same snapshot bytes.
func TestAsyncOPTMatchesInlineBuild(t *testing.T) {
	for _, w := range diffPrograms(t, "300.twolf", "130.li", "164.gzip", "099.go") {
		t.Run(w.Name, func(t *testing.T) {
			p, err := slicer.Compile(w.Src)
			if err != nil {
				t.Fatal(err)
			}
			var images [2][]byte
			for i, deferred := range []bool{false, true} {
				rec, err := p.Record(slicer.RunOptions{Input: w.Input, DeferGraphs: deferred})
				if err != nil {
					t.Fatal(err)
				}
				g, err := rec.OPTGraph()
				if err == nil {
					images[i], err = g.AppendSnapshot(nil)
				}
				rec.Close()
				if err != nil {
					t.Fatal(err)
				}
			}
			if len(images[0]) == 0 || !bytes.Equal(images[0], images[1]) {
				t.Fatalf("Record's OPT (%d bytes) and the deferred inline build (%d bytes) serialize differently",
					len(images[0]), len(images[1]))
			}
		})
	}
}

// attribution is the part of an explain profile that describes which
// edges the traversal took and how each was resolved.
func attribution(p *explain.Profile) explain.Profile {
	return explain.Profile{
		NodesVisited: p.NodesVisited, Edges: p.Edges,
		Explicit: p.Explicit, Inferred: p.Inferred, Shortcut: p.Shortcut,
		ByKind: p.ByKind,
	}
}
