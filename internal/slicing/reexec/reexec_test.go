package reexec_test

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"dynslice/internal/compile"
	"dynslice/internal/interp"
	"dynslice/internal/ir"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/explain"
	"dynslice/internal/slicing/lp"
	"dynslice/internal/slicing/reexec"
	"dynslice/internal/trace"
)

// rexSrc has early and late definitions, recursion, arrays, and input,
// so windows, checkpoints, and segment skipping all get exercised.
const rexSrc = `
var early = 0;
var late = 0;
var acc = 0;
var arr[8];

func fib(n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}

func main() {
	early = input() + 1;
	var i = 0;
	while (i < 200) {
		arr[i % 8] = fib(i % 7);
		acc = acc + arr[i % 8];
		late = late + i;
		i = i + 1;
	}
	print(early);
	print(acc);
	print(late);
}`

type recording struct {
	p     *ir.Program
	segs  []*trace.Segment
	path  string
	input []int64
	res   *interp.Result
}

// record runs src instrumented, writing a trace (for the LP reference)
// and capturing checkpoints (for reexec).
func record(t *testing.T, src string, segBlocks int, ckEvery int64, input ...int64) *recording {
	t.Helper()
	p, err := compile.Source(src)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(p, f, segBlocks)
	res, err := interp.Run(p, interp.Options{Input: input, Sink: w, CheckpointEvery: ckEvery})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	return &recording{p: p, segs: w.Segments(), path: path, input: input, res: res}
}

func (r *recording) reexecOpts() reexec.Options {
	return reexec.Options{
		Input:       r.input,
		TotalBlocks: r.res.BlockExecs,
		Checkpoints: r.res.Checkpoints,
	}
}

func globalAddr(p *ir.Program, name string) int64 {
	for _, o := range p.Globals {
		if o.Name == name {
			return interp.GlobalBase + o.Off
		}
	}
	return -1
}

func globalAddrs(p *ir.Program) []int64 {
	var out []int64
	for _, o := range p.Globals {
		for i := int64(0); i < o.Size; i++ {
			out = append(out, interp.GlobalBase+o.Off+i)
		}
	}
	return out
}

// sameStats requires re-execution to report the traversal effort LP
// reports: both run the same scan over the same summaries.
func sameStats(t *testing.T, name string, got, want *slicing.Stats) {
	t.Helper()
	if *got != *want {
		t.Fatalf("%s: stats %+v, want %+v", name, *got, *want)
	}
}

func sameSlice(t *testing.T, name string, got, want *slicing.Slice) {
	t.Helper()
	g, w := got.Stmts(), want.Stmts()
	if len(g) != len(w) {
		t.Fatalf("%s: slice has %d stmts, want %d", name, len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("%s: stmt %d = %d, want %d", name, i, g[i], w[i])
		}
	}
}

// TestMatchesLP: for every global address, the re-execution slice and
// stats must be identical to LP's over the recorded trace.
func TestMatchesLP(t *testing.T) {
	rec := record(t, rexSrc, 16, 32, 41)
	ref := lp.New(rec.p, rec.path, rec.segs)
	rx := reexec.New(rec.p, rec.segs, rec.reexecOpts())
	for _, a := range globalAddrs(rec.p) {
		c := slicing.AddrCriterion(a)
		want, wst, werr := ref.Slice(c)
		got, gst, gerr := rx.Slice(c)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("addr %d: lp err=%v, reexec err=%v", a, werr, gerr)
		}
		if werr != nil {
			continue
		}
		sameSlice(t, "addr", got, want)
		sameStats(t, "addr", gst, wst)
	}
}

// TestConcurrentSlice runs single and batched queries from many
// goroutines over one re-execution slicer and compares them against the
// sequential answers; under -race this covers the shared layout table
// and each query's reused windows.
func TestConcurrentSlice(t *testing.T) {
	rec := record(t, rexSrc, 16, 32, 41)
	rx := reexec.New(rec.p, rec.segs, rec.reexecOpts())
	var cs []slicing.Criterion
	var want []*slicing.Slice
	for _, a := range globalAddrs(rec.p) {
		c := slicing.AddrCriterion(a)
		sl, _, err := rx.Slice(c)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
		want = append(want, sl)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				for i, c := range cs {
					sl, _, err := rx.Slice(c)
					if err != nil || !sl.Equal(want[i]) {
						t.Errorf("worker %d: addr %d diverged (err=%v)", w, c.Addr, err)
						return
					}
				}
				return
			}
			outs, _, err := rx.SliceAll(cs)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range outs {
				if !outs[i].Equal(want[i]) {
					t.Errorf("worker %d: batched addr %d diverged", w, cs[i].Addr)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestMatchesLPNoCheckpoints: with no checkpoints every window resumes
// from scratch; slices must still match.
func TestMatchesLPNoCheckpoints(t *testing.T) {
	rec := record(t, rexSrc, 16, 0, 41)
	ref := lp.New(rec.p, rec.path, rec.segs)
	rx := reexec.New(rec.p, rec.segs, rec.reexecOpts())
	a := globalAddr(rec.p, "late")
	want, _, err := ref.Slice(slicing.AddrCriterion(a))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := rx.Slice(slicing.AddrCriterion(a))
	if err != nil {
		t.Fatal(err)
	}
	sameSlice(t, "late", got, want)
}

// TestBatchMatchesLP: batched resolution shares windows across the
// chunk; slices and stats must match LP's batch.
func TestBatchMatchesLP(t *testing.T) {
	rec := record(t, rexSrc, 16, 32, 41)
	ref := lp.New(rec.p, rec.path, rec.segs)
	rx := reexec.New(rec.p, rec.segs, rec.reexecOpts())
	var cs []slicing.Criterion
	for _, a := range globalAddrs(rec.p) {
		cs = append(cs, slicing.AddrCriterion(a))
	}
	want, wst, err := ref.SliceAll(cs)
	if err != nil {
		t.Fatal(err)
	}
	got, gst, err := rx.SliceAll(cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batch returned %d slices, want %d", len(got), len(want))
	}
	for i := range want {
		sameSlice(t, "batch", got[i], want[i])
	}
	sameStats(t, "batch", gst, wst)
}

// TestTinyWindow forces MaxWindowBlocks below the segment span so every
// request degenerates to a single-segment window; correctness must not
// depend on window reuse.
func TestTinyWindow(t *testing.T) {
	rec := record(t, rexSrc, 16, 32, 41)
	o := rec.reexecOpts()
	o.MaxWindowBlocks = 1
	rx := reexec.New(rec.p, rec.segs, o)
	ref := lp.New(rec.p, rec.path, rec.segs)
	a := globalAddr(rec.p, "acc")
	want, _, err := ref.Slice(slicing.AddrCriterion(a))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := rx.Slice(slicing.AddrCriterion(a))
	if err != nil {
		t.Fatal(err)
	}
	sameSlice(t, "tiny-window", got, want)
}

// TestSegmentSkippingStillPrunes: an early-finalized criterion must not
// re-execute the whole unrelated tail.
func TestSegmentSkippingStillPrunes(t *testing.T) {
	rec := record(t, rexSrc, 16, 32, 41)
	rx := reexec.New(rec.p, rec.segs, rec.reexecOpts())
	_, stats, err := rx.Slice(slicing.AddrCriterion(globalAddr(rec.p, "early")))
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegSkips == 0 {
		t.Error("expected segment skipping on an early-defined criterion")
	}
}

// TestNeverDefinedAddress: error text must match LP's classification
// surface (the planner's fallback ladder treats it as a bad criterion,
// not a backend fault).
func TestNeverDefinedAddress(t *testing.T) {
	rec := record(t, rexSrc, 16, 32, 41)
	rx := reexec.New(rec.p, rec.segs, rec.reexecOpts())
	_, _, err := rx.Slice(slicing.AddrCriterion(1 << 40))
	if err == nil {
		t.Fatal("expected an error for a never-defined address")
	}
	if reexec.Classify(err) != "" {
		t.Fatalf("bad-criterion error misclassified as %q: %v", reexec.Classify(err), err)
	}
}

// --- corruption matrix -------------------------------------------------

// TestCriterionBeforeFirstSummary: drop the head segment so the range
// containing early definitions has no summary. Every query must fail
// with a classified summary_gap error — never panic, never a wrong
// slice.
func TestCriterionBeforeFirstSummary(t *testing.T) {
	rec := record(t, rexSrc, 16, 32, 41)
	rx := reexec.New(rec.p, rec.segs[1:], rec.reexecOpts())
	_, _, err := rx.Slice(slicing.AddrCriterion(globalAddr(rec.p, "early")))
	if err == nil {
		t.Fatal("expected an error with a missing head summary")
	}
	if got := reexec.Classify(err); got != reexec.ClassSummaryGap {
		t.Fatalf("classified %q, want %q: %v", got, reexec.ClassSummaryGap, err)
	}
}

// TestTruncatedSummarySection: drop the tail segments so the summaries
// stop short of the recorded block count.
func TestTruncatedSummarySection(t *testing.T) {
	rec := record(t, rexSrc, 16, 32, 41)
	if len(rec.segs) < 3 {
		t.Fatalf("trace too short: %d segments", len(rec.segs))
	}
	rx := reexec.New(rec.p, rec.segs[:len(rec.segs)-2], rec.reexecOpts())
	_, _, err := rx.Slice(slicing.AddrCriterion(globalAddr(rec.p, "late")))
	if err == nil {
		t.Fatal("expected an error with truncated summaries")
	}
	if got := reexec.Classify(err); got != reexec.ClassSummaryTruncated {
		t.Fatalf("classified %q, want %q: %v", got, reexec.ClassSummaryTruncated, err)
	}
}

// TestSummaryFaultClasses: every way a summary index can fail to tile
// the recorded run is classified by the defect's type, not its message.
func TestSummaryFaultClasses(t *testing.T) {
	rec := record(t, rexSrc, 16, 32, 41)
	if len(rec.segs) < 4 {
		t.Fatalf("trace too short: %d segments", len(rec.segs))
	}
	segs := rec.segs
	total := rec.res.BlockExecs
	empty := &trace.Segment{StartOrd: segs[1].StartOrd, EndOrd: segs[1].StartOrd, Blocks: segs[1].Blocks}
	cases := []struct {
		name  string
		segs  []*trace.Segment
		total int64
		class string
		is    error
	}{
		{"empty index", nil, total, reexec.ClassSummaryGap, trace.ErrSummaryGap},
		{"gap", slices.Concat(segs[:1], segs[2:]), total, reexec.ClassSummaryGap, trace.ErrSummaryGap},
		{"overlap", slices.Concat(segs[:2], segs[1:]), total, reexec.ClassSummaryGap, trace.ErrSummaryGap},
		{"empty segment", slices.Concat(segs[:1], []*trace.Segment{empty}, segs[1:]), total, reexec.ClassSummaryGap, trace.ErrSummaryGap},
		{"truncated", segs[:len(segs)-1], total, reexec.ClassSummaryTruncated, trace.ErrSummaryTruncated},
		{"overrun", segs, total - 1, reexec.ClassSummaryTruncated, trace.ErrSummaryTruncated},
	}
	for _, c := range cases {
		o := rec.reexecOpts()
		o.TotalBlocks = c.total
		rx := reexec.New(rec.p, c.segs, o)
		_, _, err := rx.Slice(slicing.AddrCriterion(globalAddr(rec.p, "late")))
		if got := reexec.Classify(err); got != c.class {
			t.Errorf("%s: classified %q, want %q: %v", c.name, got, c.class, err)
		}
		if !errors.Is(err, c.is) {
			t.Errorf("%s: error %v does not wrap %v", c.name, err, c.is)
		}
	}
}

// TestFinalPartialSegment: a criterion defined in the last, partial
// segment (trace length not a multiple of segBlocks) resolves normally.
func TestFinalPartialSegment(t *testing.T) {
	rec := record(t, rexSrc, 16, 32, 41)
	last := rec.segs[len(rec.segs)-1]
	if last.EndOrd-last.StartOrd == 16 {
		t.Skip("trace length is a multiple of segBlocks; partial-tail case not hit")
	}
	ref := lp.New(rec.p, rec.path, rec.segs)
	rx := reexec.New(rec.p, rec.segs, rec.reexecOpts())
	// late is written on every loop iteration, so its final definition is
	// near the end of the trace — inside the partial tail's resolution.
	a := globalAddr(rec.p, "late")
	want, _, err := ref.Slice(slicing.AddrCriterion(a))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := rx.Slice(slicing.AddrCriterion(a))
	if err != nil {
		t.Fatal(err)
	}
	sameSlice(t, "partial-tail", got, want)
}

// TestDesyncWrongInput: summaries from one run, input from another. The
// regenerated blocks disagree with the summaries' block sets or counts;
// the backend must report desync rather than slice the wrong execution.
func TestDesyncWrongInput(t *testing.T) {
	src := `
	var g = 0;
	func main() {
		if (input() > 0) {
			var i = 0;
			while (i < 100) { g = g + i; i = i + 1; }
		}
		print(g);
	}`
	rec := record(t, src, 8, 16, 1) // input 1: loop taken, long trace
	o := rec.reexecOpts()
	o.Input = []int64{0} // re-execution takes the short path
	rx := reexec.New(rec.p, rec.segs, o)
	_, _, err := rx.Slice(slicing.AddrCriterion(globalAddr(rec.p, "g")))
	if err == nil {
		t.Fatal("expected a desync error when re-executing with different input")
	}
	if got := reexec.Classify(err); got != reexec.ClassDesync {
		t.Fatalf("classified %q, want %q: %v", got, reexec.ClassDesync, err)
	}
}

// TestExecFault: an impossible step budget makes the resume itself
// fail; the error must be classified exec_fault.
func TestExecFault(t *testing.T) {
	rec := record(t, rexSrc, 16, 0, 41)
	o := rec.reexecOpts()
	o.MaxSteps = 1
	rx := reexec.New(rec.p, rec.segs, o)
	_, _, err := rx.Slice(slicing.AddrCriterion(globalAddr(rec.p, "late")))
	if err == nil {
		t.Fatal("expected an error with MaxSteps=1")
	}
	if got := reexec.Classify(err); got != reexec.ClassExecFault {
		t.Fatalf("classified %q, want %q: %v", got, reexec.ClassExecFault, err)
	}
}

// TestObservedMatchesLP: explain queries run through the same traversal
// and must agree on the slice and the stats.
func TestObservedMatchesLP(t *testing.T) {
	rec := record(t, rexSrc, 16, 32, 41)
	ref := lp.New(rec.p, rec.path, rec.segs)
	rx := reexec.New(rec.p, rec.segs, rec.reexecOpts())
	a := globalAddr(rec.p, "acc")
	wrec, grec := explain.NewRecorder(), explain.NewRecorder()
	want, wst, err := ref.SliceObserved(slicing.AddrCriterion(a), wrec)
	if err != nil {
		t.Fatal(err)
	}
	got, gst, err := rx.SliceObserved(slicing.AddrCriterion(a), grec)
	if err != nil {
		t.Fatal(err)
	}
	sameSlice(t, "observed", got, want)
	sameStats(t, "observed", gst, wst)
}
