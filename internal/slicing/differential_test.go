package slicing_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dynslice/internal/compile"
	"dynslice/internal/fuzzgen"
	"dynslice/internal/interp"
	"dynslice/internal/ir"
	"dynslice/internal/profile"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/forward"
	"dynslice/internal/slicing/fp"
	"dynslice/internal/slicing/lp"
	"dynslice/internal/slicing/opt"
	"dynslice/internal/slicing/oracle"
	"dynslice/internal/trace"
)

// addrSampler collects every address defined during a run so tests can
// pick slicing criteria.
type addrSampler struct {
	defined map[int64]bool
}

func newAddrSampler() *addrSampler { return &addrSampler{defined: map[int64]bool{}} }

func (a *addrSampler) Block(*ir.Block) {}
func (a *addrSampler) Stmt(_ *ir.Stmt, _, defs []int64) {
	for _, d := range defs {
		a.defined[d] = true
	}
}
func (a *addrSampler) RegionDef(_ *ir.Stmt, start, length int64) {
	for x := start; x < start+length; x++ {
		a.defined[x] = true
	}
}
func (a *addrSampler) End() {}

// sample returns up to n defined addresses, deterministically spread.
func (a *addrSampler) sample(n int) []int64 {
	all := make([]int64, 0, len(a.defined))
	for x := range a.defined {
		all = append(all, x)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) <= n {
		return all
	}
	out := make([]int64, 0, n)
	step := len(all) / n
	for i := 0; i < n; i++ {
		out = append(out, all[i*step])
	}
	return out
}

// harness compiles and runs a program, building every slicer variant.
type harness struct {
	p        *ir.Program
	fpg      *fp.Graph
	lps      *lp.Slicer
	optFull  *opt.Graph
	optStage []*opt.Graph // stages 0..7, without shortcuts
	addrs    []int64
}

func buildHarness(t *testing.T, src string, input []int64, nCriteria int) *harness {
	t.Helper()
	p, err := compile.Source(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}

	// Profiling run (paper: the profile and measured runs coincide).
	col := profile.NewCollector(p)
	if _, err := interp.Run(p, interp.Options{Input: input, Sink: col}); err != nil {
		t.Fatalf("profiling run: %v", err)
	}
	hot := col.HotPaths(1, 0)

	h := &harness{p: p}
	h.fpg = fp.NewGraph(p)
	h.optFull = opt.NewGraph(p, opt.Full(), hot, col.Cuts())
	for stage := 0; stage <= 7; stage++ {
		h.optStage = append(h.optStage, opt.NewGraph(p, opt.Stage(stage), hot, col.Cuts()))
	}
	sampler := newAddrSampler()

	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.bin")
	tf, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	tw := trace.NewWriter(p, tf, 64) // small segments to exercise skipping
	sinks := trace.Multi{h.fpg, h.optFull, sampler, tw}
	for _, g := range h.optStage {
		sinks = append(sinks, g)
	}
	if _, err := interp.Run(p, interp.Options{Input: input, Sink: sinks}); err != nil {
		t.Fatalf("measured run: %v", err)
	}
	if tw.Err() != nil {
		t.Fatalf("trace write: %v", tw.Err())
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	h.lps = lp.New(p, tracePath, tw.Segments())
	h.addrs = sampler.sample(nCriteria)
	return h
}

// checkAll verifies that every algorithm and configuration produces the
// same slice for every sampled criterion.
func (h *harness) checkAll(t *testing.T) {
	t.Helper()
	if len(h.addrs) == 0 {
		t.Fatal("no defined addresses to slice on")
	}
	for _, a := range h.addrs {
		c := slicing.AddrCriterion(a)
		want, _, err := h.fpg.Slice(c)
		if err != nil {
			t.Fatalf("fp slice addr %d: %v", a, err)
		}
		got, _, err := h.lps.Slice(c)
		if err != nil {
			t.Fatalf("lp slice addr %d: %v", a, err)
		}
		if !want.Equal(got) {
			t.Errorf("addr %d: lp slice differs from fp\nfp: %v\nlp: %v", a, describe(h.p, want), describe(h.p, got))
		}
		got, _, err = h.optFull.Slice(c)
		if err != nil {
			t.Fatalf("opt slice addr %d: %v", a, err)
		}
		if !want.Equal(got) {
			t.Errorf("addr %d: opt(full) slice differs from fp\nfp:  %v\nopt: %v", a, describe(h.p, want), describe(h.p, got))
		}
		for stage, g := range h.optStage {
			got, _, err = g.Slice(c)
			if err != nil {
				t.Fatalf("opt stage %d slice addr %d: %v", stage, a, err)
			}
			if !want.Equal(got) {
				t.Errorf("addr %d: opt(stage %d) slice differs from fp\nfp:  %v\nopt: %v",
					a, stage, describe(h.p, want), describe(h.p, got))
			}
		}
	}
}

func describe(p *ir.Program, s *slicing.Slice) string {
	ids := s.Stmts()
	out := ""
	for _, id := range ids {
		st := p.Stmt(id)
		out += fmt.Sprintf("s%d@%s(%s) ", id, st.Pos, st.Op)
	}
	return out
}

var differentialPrograms = map[string]struct {
	src   string
	input []int64
}{
	"loops_and_branches": {src: `
		func main() {
			var sum = 0;
			var prod = 1;
			var i = 0;
			while (i < 20) {
				if (i % 3 == 0) {
					sum = sum + i;
				} else {
					prod = prod * 2;
				}
				if (i % 7 == 0) {
					sum = sum + prod;
				}
				i = i + 1;
			}
			print(sum);
			print(prod);
		}
	`},
	"functions_recursion": {src: `
		var depth = 0;
		func fib(n) {
			depth = depth + 1;
			if (n < 2) { return n; }
			return fib(n - 1) + fib(n - 2);
		}
		func helper(a, b) {
			var t = a * b;
			return t + fib(a % 5);
		}
		func main() {
			var acc = 0;
			var i = 1;
			while (i < 8) {
				acc = acc + helper(i, i + 1);
				i = i + 1;
			}
			print(acc);
			print(depth);
		}
	`},
	"pointers_aliasing": {src: `
		var g1 = 0;
		var g2 = 0;
		func pick(which) {
			if (which % 2 == 0) { return &g1; }
			return &g2;
		}
		func main() {
			var x = 10;
			var y = 20;
			var p = &x;
			var i = 0;
			while (i < 12) {
				// OPT-1b territory: *p may or may not kill x.
				x = i;
				*p = *p + 1;
				y = x + y;
				if (i % 4 == 0) { p = &y; }
				if (i % 4 == 2) { p = &x; }
				var q = pick(i);
				*q = *q + i;
				i = i + 1;
			}
			print(x); print(y); print(g1); print(g2);
		}
	`},
	"arrays_and_regions": {src: `
		func main() {
			var a[16];
			var i = 0;
			while (i < 16) {
				a[i] = i * 3;
				i = i + 1;
			}
			var sum = 0;
			i = 0;
			while (i < 16) {
				if (a[i] % 2 == 0) { sum = sum + a[i]; }
				i = i + 1;
			}
			// Redeclare arrays inside a loop body.
			var j = 0;
			while (j < 3) {
				var b[4];
				b[j] = sum + j;
				sum = sum + b[j];
				j = j + 1;
			}
			print(sum);
		}
	`},
	"input_driven": {src: `
		func main() {
			var n = input();
			var best = 0 - 1000;
			var i = 0;
			while (i < n) {
				var v = input();
				if (v > best) { best = v; }
				i = i + 1;
			}
			print(best);
		}
	`, input: []int64{6, 3, -2, 9, 4, 9, 1}},
	"use_use_chains": {src: `
		var g = 5;
		func main() {
			var acc = 0;
			var i = 0;
			while (i < 15) {
				// Two uses of g in one block with no local def: OPT-2b.
				acc = acc + g * g + g;
				if (i % 5 == 4) { g = g + 1; }
				i = i + 1;
			}
			print(acc);
		}
	`},
	"shared_labels": {src: `
		var x = 0;
		var y = 0;
		func main() {
			var i = 0;
			var s = 0;
			while (i < 18) {
				if (i % 2 == 0) {
					x = i;
					y = i * 2;
				}
				// Both uses get their defs from the same block: OPT-3.
				s = s + x + y;
				i = i + 1;
			}
			print(s);
		}
	`},
	"break_continue_for": {src: `
		func main() {
			var total = 0;
			for (var i = 0; i < 30; i = i + 1) {
				if (i % 4 == 1) { continue; }
				if (i > 21) { break; }
				for (var j = 0; j < i % 5; j = j + 1) {
					total = total + j;
				}
			}
			print(total);
		}
	`},
	"nested_calls_globals": {src: `
		var buf[8];
		var top = 0;
		func push(v) {
			buf[top] = v;
			top = top + 1;
			return top;
		}
		func pop() {
			top = top - 1;
			return buf[top];
		}
		func main() {
			push(3); push(1); push(4); push(1); push(5);
			var s = 0;
			while (top > 0) {
				s = s * 10 + pop();
			}
			print(s);
		}
	`},
}

func TestDifferentialSlices(t *testing.T) {
	for name, tc := range differentialPrograms {
		t.Run(name, func(t *testing.T) {
			h := buildHarness(t, tc.src, tc.input, 12)
			h.checkAll(t)
		})
	}
}

// TestFullMatrixAgainstOracle runs every differential program through the
// fuzzing harness's comparison helper: the complete configuration matrix —
// FP and OPT each {sequential,pipelined}, OPT additionally x
// {resident,hybrid}, plus LP and the forward slicer — all compared
// against the brute-force oracle on every sampled criterion. The
// harness-based tests above pin the per-stage structure; this one pins
// the full cross product, including the build-mode axes the local
// harness does not multiply out.
func TestFullMatrixAgainstOracle(t *testing.T) {
	for name, tc := range differentialPrograms {
		t.Run(name, func(t *testing.T) {
			res, err := fuzzgen.Check(tc.src, tc.input, fuzzgen.Options{Criteria: 12})
			if err != nil {
				t.Fatal(err)
			}
			if res.Variants < len(fuzzgen.FullMatrix()) {
				t.Fatalf("only %d variants compared, want %d", res.Variants, len(fuzzgen.FullMatrix()))
			}
			for _, d := range res.Divergences {
				t.Errorf("%s", d)
			}
		})
	}
}

// TestStageZeroMatchesFP checks the structural invariant that the OPT
// representation with every optimization disabled stores exactly as many
// labels as the full graph.
func TestStageZeroMatchesFP(t *testing.T) {
	for name, tc := range differentialPrograms {
		t.Run(name, func(t *testing.T) {
			h := buildHarness(t, tc.src, tc.input, 1)
			if got, want := h.optStage[0].LabelPairs(), h.fpg.LabelPairs(); got != want {
				t.Errorf("stage-0 label pairs = %d, fp = %d", got, want)
			}
		})
	}
}

// TestOptimizationReducesLabels checks the paper's core claim in miniature:
// each optimization stage never increases the stored label count, and the
// full configuration is strictly smaller than the unoptimized graph on
// every program with loops.
func TestOptimizationReducesLabels(t *testing.T) {
	for name, tc := range differentialPrograms {
		t.Run(name, func(t *testing.T) {
			h := buildHarness(t, tc.src, tc.input, 1)
			prev := h.optStage[0].LabelPairs()
			for stage := 1; stage <= 7; stage++ {
				cur := h.optStage[stage].LabelPairs()
				if cur > prev {
					t.Errorf("stage %d increased labels: %d -> %d", stage, prev, cur)
				}
				prev = cur
			}
			if full, base := h.optFull.LabelPairs(), h.optStage[0].LabelPairs(); full >= base {
				t.Errorf("full OPT did not reduce labels: %d vs %d", full, base)
			}
		})
	}
}

// TestOracleAgreement validates FP itself (the oracle of the other
// differential tests) against a brute-force reference slicer that shares
// no code with any graph implementation.
func TestOracleAgreement(t *testing.T) {
	for name, tc := range differentialPrograms {
		t.Run(name, func(t *testing.T) {
			p, err := compile.Source(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			fpg := fp.NewGraph(p)
			ora := oracle.New(p)
			sampler := newAddrSampler()
			if _, err := interp.Run(p, interp.Options{Input: tc.input, Sink: trace.Multi{fpg, ora, sampler}}); err != nil {
				t.Fatal(err)
			}
			for _, a := range sampler.sample(10) {
				c := slicing.AddrCriterion(a)
				want, _, err := ora.Slice(c)
				if err != nil {
					t.Fatalf("oracle addr %d: %v", a, err)
				}
				got, _, err := fpg.Slice(c)
				if err != nil {
					t.Fatalf("fp addr %d: %v", a, err)
				}
				if !want.Equal(got) {
					t.Errorf("addr %d: FP disagrees with the brute-force oracle\noracle: %v\nfp:     %v",
						a, describe(p, want), describe(p, got))
				}
			}
		})
	}
}

// TestForwardAgreement validates the forward-computation slicer against
// FP: for every criterion the eagerly computed slice must equal the
// backward-computed one.
func TestForwardAgreement(t *testing.T) {
	for name, tc := range differentialPrograms {
		t.Run(name, func(t *testing.T) {
			p, err := compile.Source(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			fpg := fp.NewGraph(p)
			fwd := forward.New(p)
			sampler := newAddrSampler()
			if _, err := interp.Run(p, interp.Options{Input: tc.input, Sink: trace.Multi{fpg, fwd, sampler}}); err != nil {
				t.Fatal(err)
			}
			for _, a := range sampler.sample(10) {
				c := slicing.AddrCriterion(a)
				want, _, err := fpg.Slice(c)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := fwd.Slice(c)
				if err != nil {
					t.Fatal(err)
				}
				if !want.Equal(got) {
					t.Errorf("addr %d: forward slice differs from backward\nfwd: %v\nfp:  %v",
						a, describe(p, got), describe(p, want))
				}
			}
			if fwd.DistinctSets() == 0 {
				t.Error("forward slicer materialized no sets")
			}
		})
	}
}
