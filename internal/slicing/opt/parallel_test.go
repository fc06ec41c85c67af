package opt_test

import (
	"sort"
	"sync"
	"testing"

	"dynslice/internal/compile"
	"dynslice/internal/interp"
	"dynslice/internal/ir"
	"dynslice/internal/profile"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/explain"
	"dynslice/internal/slicing/opt"
	"dynslice/internal/telemetry"
	"dynslice/internal/trace"
)

// defCollector records every defined address, giving the tests a full
// criterion universe.
type defCollector struct{ addrs map[int64]bool }

func (c *defCollector) Block(*ir.Block) {}
func (c *defCollector) Stmt(s *ir.Stmt, _, defs []int64) {
	for _, a := range defs {
		c.addrs[a] = true
	}
}
func (c *defCollector) RegionDef(s *ir.Stmt, start, length int64) {
	for a := start; a < start+length; a++ {
		c.addrs[a] = true
	}
}
func (c *defCollector) End() {}

// parSrc is elimSrc scaled up so the defined-address universe exceeds one
// 64-criterion bitset chunk.
const parSrc = `
var total = 0;
var arr[80];

func addup(k) {
	var j = 0;
	var acc = 0;
	while (j < k) {
		acc = acc + arr[j];
		j = j + 1;
	}
	return acc;
}

func main() {
	var i = 0;
	while (i < 80) {
		arr[i] = i * 3;
		if (i % 4 == 0) {
			total = total + addup(i);
		}
		i = i + 1;
	}
	print(total);
}
`

// buildFull compiles parSrc and builds an OPT graph under cfg, returning
// the sorted list of every defined address. hybridBudget > 0 enables §4.2
// disk-epoch mode with that resident-pair budget.
func buildFull(t *testing.T, cfg opt.Config, hybridBudget int64) (*opt.Graph, []int64) {
	t.Helper()
	p, err := compile.Source(parSrc)
	if err != nil {
		t.Fatal(err)
	}
	col := profile.NewCollector(p)
	if _, err := interp.Run(p, interp.Options{Sink: col}); err != nil {
		t.Fatal(err)
	}
	g := opt.NewGraph(p, cfg, col.HotPaths(1, 0), col.Cuts())
	if hybridBudget > 0 {
		if err := g.EnableHybrid(t.TempDir(), hybridBudget); err != nil {
			t.Fatal(err)
		}
	}
	defs := &defCollector{addrs: map[int64]bool{}}
	if _, err := interp.Run(p, interp.Options{Sink: trace.Multi{g, defs}}); err != nil {
		t.Fatal(err)
	}
	addrs := make([]int64, 0, len(defs.addrs))
	for a := range defs.addrs {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return g, addrs
}

func criteria(addrs []int64) []slicing.Criterion {
	cs := make([]slicing.Criterion, len(addrs))
	for i, a := range addrs {
		cs[i] = slicing.AddrCriterion(a)
	}
	return cs
}

// TestSliceAllMatchesSequential: the batched traversal must produce, for
// every defined address, exactly the slice the sequential traversal
// produces — with and without shortcut closures, and across the
// 64-criterion chunk boundary. No key of a valid graph falls outside the
// kernel's timestamp range or its node execution's width.
func TestSliceAllMatchesSequential(t *testing.T) {
	cfgs := map[string]opt.Config{
		"full":         opt.Full(),
		"no-shortcuts": func() opt.Config { c := opt.Full(); c.Shortcuts = false; return c }(),
		"stage3":       opt.Stage(3),
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			g, addrs := buildFull(t, cfg, 0)
			if len(addrs) <= 64 {
				t.Fatalf("want >64 criteria to cross a chunk boundary, have %d", len(addrs))
			}
			reg := telemetry.New()
			g.SetTelemetry(reg)
			defer func() {
				if n := reg.Counter("slice.batch.dropped_keys").Value(); n != 0 {
					t.Errorf("%d keys dropped on a valid graph", n)
				}
			}()
			batched, _, err := g.SliceAll(criteria(addrs))
			if err != nil {
				t.Fatal(err)
			}
			for i, a := range addrs {
				seq := checkOneCriterionRuns(t, g, a)
				if !seq.Equal(batched[i]) {
					t.Fatalf("addr %d: batched slice (%d stmts) != sequential (%d stmts)",
						a, batched[i].Len(), seq.Len())
				}
			}
		})
	}
}

// checkOneCriterionRuns answers a through Slice, SliceObserved and a
// one-criterion SliceAll — the same kernel run — and fails unless all
// three return the same slice, Stats.Instances and Stats.LabelProbes.
func checkOneCriterionRuns(t *testing.T, g *opt.Graph, a int64) *slicing.Slice {
	t.Helper()
	c := slicing.AddrCriterion(a)
	seq, st, err := g.Slice(c)
	if err != nil {
		t.Fatal(err)
	}
	obs, ost, err := g.SliceObserved(c, explain.NewRecorder())
	if err != nil {
		t.Fatal(err)
	}
	one, est, err := g.SliceAll([]slicing.Criterion{c})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Equal(obs) || !seq.Equal(one[0]) {
		t.Fatalf("addr %d: Slice, SliceObserved and one-criterion SliceAll disagree", a)
	}
	for _, o := range []*slicing.Stats{ost, est} {
		if o.Instances != st.Instances || o.LabelProbes != st.LabelProbes {
			t.Fatalf("addr %d: stats %+v, Slice reported %+v", a, *o, *st)
		}
	}
	return seq
}

// TestSliceAllWorkerSweep crosses SetWorkers values — a no-op kept for
// callers that still size a pool — with criteria counts straddling the
// 64-bit chunk boundaries (1, 63, 64, 65, and 200 with duplicated
// addresses): every combination must reproduce the sequential answer,
// shortcut closures included.
func TestSliceAllWorkerSweep(t *testing.T) {
	g, addrs := buildFull(t, opt.Full(), 0)
	seq := map[int64]*slicing.Slice{}
	for _, a := range addrs {
		sl, _, err := g.Slice(slicing.AddrCriterion(a))
		if err != nil {
			t.Fatal(err)
		}
		seq[a] = sl
	}
	for _, workers := range []int{1, 2, 8} {
		g.SetWorkers(workers)
		for _, n := range []int{1, 63, 64, 65, 200} {
			picked := make([]int64, n)
			cs := make([]slicing.Criterion, n)
			for i := 0; i < n; i++ {
				picked[i] = addrs[i%len(addrs)] // >len(addrs) duplicates criteria
				cs[i] = slicing.AddrCriterion(picked[i])
			}
			outs, _, err := g.SliceAll(cs)
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i, a := range picked {
				if !outs[i].Equal(seq[a]) {
					t.Fatalf("workers=%d n=%d: addr %d diverged from sequential", workers, n, a)
				}
			}
		}
	}
	g.SetWorkers(0)
}

// TestSliceAllHybrid repeats the determinism check on a graph whose labels
// were flushed to disk epochs, so batched resolution exercises the
// epoch-cache path too.
func TestSliceAllHybrid(t *testing.T) {
	g, addrs := buildFull(t, opt.Full(), 1)
	if g.HybridEpochs() == 0 {
		t.Skip("budget did not force an epoch flush")
	}
	batched, _, err := g.SliceAll(criteria(addrs))
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		if seq := checkOneCriterionRuns(t, g, a); !seq.Equal(batched[i]) {
			t.Fatalf("hybrid addr %d: batched != sequential", a)
		}
	}
	if g.HybridLoads() == 0 {
		t.Error("slicing never loaded an epoch file")
	}
}

// TestSliceAllErrors: error cases must match the sequential API.
func TestSliceAllErrors(t *testing.T) {
	g, addrs := buildFull(t, opt.Full(), 0)
	if _, _, err := g.SliceAll([]slicing.Criterion{slicing.AddrCriterion(1 << 40)}); err == nil {
		t.Error("undefined address: want error")
	}
	if _, _, err := g.SliceAll([]slicing.Criterion{{Addr: addrs[0], Stmt: 1, TS: 0}}); err == nil {
		t.Error("statement-instance criterion: want error")
	}
	outs, _, err := g.SliceAll(nil)
	if err != nil || len(outs) != 0 {
		t.Errorf("empty batch: outs=%d err=%v", len(outs), err)
	}
}

// TestConcurrentSlice hammers one finalized graph from many goroutines —
// sequential queries, batched queries, and hybrid epoch loads all at once
// — and checks every result against a precomputed baseline. Run under
// -race this is the post-build freeze proof: labels frozen, the shortcut
// closure table and the epoch cache safe to share. Computing the baseline
// fills the graph's closure table, so the first-use case hammers a second
// build of the same program instead, whose table the goroutines' queries
// allocate and fill concurrently.
func TestConcurrentSlice(t *testing.T) {
	for _, tc := range []struct {
		name     string
		hybrid   int64
		firstUse bool
	}{{"resident", 0, false}, {"hybrid", 1, false}, {"first-use", 0, true}} {
		t.Run(tc.name, func(t *testing.T) {
			g, addrs := buildFull(t, opt.Full(), tc.hybrid)
			want := make([]*slicing.Slice, len(addrs))
			for i, a := range addrs {
				sl, _, err := g.Slice(slicing.AddrCriterion(a))
				if err != nil {
					t.Fatal(err)
				}
				want[i] = sl
			}
			if tc.firstUse {
				g, _ = buildFull(t, opt.Full(), tc.hybrid)
			}
			var wg sync.WaitGroup
			errs := make(chan error, 64)
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for rep := 0; rep < 3; rep++ {
						if w%2 == 0 {
							for i, a := range addrs {
								sl, _, err := g.Slice(slicing.AddrCriterion(a))
								if err != nil {
									errs <- err
									return
								}
								if !sl.Equal(want[i]) {
									t.Errorf("worker %d: addr %d diverged", w, a)
									return
								}
							}
						} else {
							outs, _, err := g.SliceAll(criteria(addrs))
							if err != nil {
								errs <- err
								return
							}
							for i := range outs {
								if !outs[i].Equal(want[i]) {
									t.Errorf("worker %d: batched addr %d diverged", w, addrs[i])
									return
								}
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}
