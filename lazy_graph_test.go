package slicer

import (
	"strings"
	"sync"
	"testing"

	"dynslice/internal/slicing/plan"
	"dynslice/internal/telemetry"
	"dynslice/internal/telemetry/querylog"
)

// lazySrc has enough distinct criteria, calls and control dependence
// that FP and OPT graphs differ in shape while answering alike.
const lazySrc = `
var total = 0;
var hist[6];

func weigh(v) {
	if (v % 3 == 0) {
		return v * 2;
	}
	return v + input();
}

func main() {
	var i = 0;
	while (i < 30) {
		var w = weigh(i);
		hist[w % 6] = hist[w % 6] + 1;
		total = total + w;
		i = i + 1;
	}
	print(total);
	print(hist[2]);
}`

var lazyInput = []int64{4, 1, 7, 2, 9, 3, 8}

// reruns is how many times the program has run under reg.
func reruns(reg *telemetry.Registry) int64 { return reg.Counter("interp.runs").Value() }

// TestLazyGraphsBuildOnce: after a default Record, a snapshot-writing
// Record and a snapshot hit, no FP graph exists until its first use;
// sixteen goroutines racing on the first FP query build it once, by one
// re-run, and later uses — queries, Stats, the planner — build nothing.
// A DeferGraphs recording builds OPT the same way.
func TestLazyGraphsBuildOnce(t *testing.T) {
	p, err := Compile(lazySrc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cases := []struct {
		name, source string
		o            RunOptions
		deferOPT     bool
	}{
		{name: "trace", source: "build"},
		{name: "snapshot-write", source: "build", o: RunOptions{Snapshot: SnapshotOptions{Dir: dir, Write: true}}},
		{name: "snapshot-hit", source: "snapshot", o: RunOptions{Snapshot: SnapshotOptions{Dir: dir, Read: true}}},
		{name: "deferred", source: "build", o: RunOptions{DeferGraphs: true}, deferOPT: true},
	}
	for _, c := range cases { // in order: the hit reads what the write wrote
		t.Run(c.name, func(t *testing.T) {
			reg := telemetry.New()
			o := c.o
			o.Input, o.TrackCriteria, o.Telemetry = lazyInput, 12, reg
			rec, err := p.Record(o)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if rec.Source() != c.source {
				t.Fatalf("source %q, want %q", rec.Source(), c.source)
			}
			crit := rec.Criteria()
			if len(crit) == 0 {
				t.Fatal("no tracked criteria")
			}
			if rec.fpG.done.Load() != nil {
				t.Fatal("Record built FP")
			}
			if built := rec.optG.done.Load() != nil; built == c.deferOPT {
				t.Fatalf("OPT built by Record: %t, want %t", built, !c.deferOPT)
			}
			if av := rec.availability(); !av.FP || av.FPWarm || !av.OPT || av.OPTWarm == c.deferOPT {
				t.Fatalf("availability %+v before any query", av)
			}

			runs := reruns(reg)
			want, err := rec.OPT().SliceAddrs(crit)
			if err != nil {
				t.Fatal(err)
			}
			if c.deferOPT {
				runs++ // the first OPT query re-ran the program once
			}
			if n := reruns(reg); n != runs {
				t.Fatalf("%d program runs after the OPT query, want %d", n, runs)
			}

			const racers = 16
			got := make([][]*Slice, racers)
			errs := make([]error, racers)
			var wg sync.WaitGroup
			for i := range racers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = rec.FP().SliceAddrs(crit)
				}()
			}
			wg.Wait()
			for i := range racers {
				if errs[i] != nil {
					t.Fatalf("racer %d: %v", i, errs[i])
				}
				for k := range crit {
					if !got[i][k].Raw().Equal(want[k].Raw()) {
						t.Fatalf("racer %d: FP slice of address %d differs from OPT's", i, crit[k])
					}
				}
			}
			if n := reruns(reg); n != runs+1 {
				t.Fatalf("%d program runs after the racing FP queries, want %d (one re-run)", n, runs+1)
			}

			g := rec.fpG.done.Load()
			if _, err := rec.FP().SliceAddr(crit[0]); err != nil {
				t.Fatal(err)
			}
			if st := rec.Stats(); st.FPLabelPairs == 0 || st.OPTLabelPairs == 0 {
				t.Fatalf("Stats %+v after both graphs are built", st)
			}
			if d := rec.PlanFor(plan.Shape{Kind: plan.KindSlice, Batch: 1}); d.Backend == "" {
				t.Fatal("no plan once both graphs are built")
			}
			if rec.fpG.done.Load() != g || reruns(reg) != runs+1 {
				t.Fatal("a later use built FP again")
			}
			if av := rec.availability(); !av.FPWarm || !av.OPTWarm {
				t.Fatalf("availability %+v after both builds", av)
			}
		})
	}
}

// TestLazyFPRerunMismatch: a re-run that disagrees with the recording —
// here its stored step count is off by one — fails FP's build as a
// backend fault, not a criterion error, and the failure latches. A
// planned engine whose ladder tries FP first demotes to the next rung
// and answers with the right slices, on a trace-backed and on a
// snapshot-loaded recording.
func TestLazyFPRerunMismatch(t *testing.T) {
	p, err := Compile(lazySrc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, source := range []string{"build", "snapshot"} {
		t.Run(source, func(t *testing.T) {
			record := func(qlog *querylog.Log) *Recording {
				rec, err := p.Record(RunOptions{
					Input: lazyInput, TrackCriteria: 12, QueryLog: qlog,
					Snapshot: SnapshotOptions{Dir: dir, Read: source == "snapshot", Write: source == "build"},
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(rec.Close)
				if rec.Source() != source {
					t.Fatalf("source %q, want %q", rec.Source(), source)
				}
				return rec
			}

			rec := record(nil)
			rec.Steps++
			_, err := rec.FP().SliceAddr(rec.Criteria()[0])
			if err == nil || !strings.Contains(err.Error(), "re-run diverged") {
				t.Fatalf("FP query on a mismatched re-run: %v", err)
			}
			if class := querylog.Classify(err); class == "bad_criterion" || class == "" {
				t.Fatalf("re-run mismatch classified %q, want a backend fault", class)
			}
			if _, err2 := rec.FP().SliceAddr(rec.Criteria()[0]); err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("failed build did not latch: %v, then %v", err, err2)
			}
			if av := rec.availability(); av.FP || av.FPWarm {
				t.Fatalf("availability %+v after a failed FP build", av)
			}

			qlog := querylog.New(256)
			rec = record(qlog)
			crit := rec.Criteria()
			want, err := rec.OPT().SliceAddrs(crit)
			if err != nil {
				t.Fatal(err)
			}
			rec.Steps++
			// Zero features make every static estimate zero, so the
			// canonical order puts FP on the first rung.
			rec.Planner().Seed(plan.Features{})
			if d := rec.PlanFor(plan.Shape{Kind: plan.KindSlice, Batch: 1}); d.Backend != plan.FP {
				t.Fatalf("plan chose %q, want %q first (%s)", d.Backend, plan.FP, d.Reason)
			}
			e := rec.Engine(EngineOptions{CacheSize: -1})
			for k, a := range crit {
				sl, err := e.SliceAddr(a)
				if err != nil {
					t.Fatalf("planned query did not survive FP's failed build: %v", err)
				}
				if !sl.Raw().Equal(want[k].Raw()) {
					t.Fatalf("address %d: demoted answer differs from OPT's", a)
				}
			}
			var failed, demoted int
			for _, r := range qlog.Recent(0) {
				switch {
				case r.Backend == plan.FP && r.Err != "":
					failed++
				case r.Backend == plan.FP:
					t.Fatalf("FP answered from a mismatched re-run: %+v", r)
				case strings.Contains(r.PlanReason, "fallback from FP"):
					demoted++
				}
			}
			if failed != 1 || demoted != 1 {
				t.Fatalf("%d failed FP rungs and %d demoted answers, want 1 and 1 (later plans skip FP)", failed, demoted)
			}
		})
	}
}
