package profile_test

import (
	"cmp"
	"slices"
	"testing"

	"dynslice/internal/bench"
	"dynslice/internal/compile"
	"dynslice/internal/dataflow"
	"dynslice/internal/interp"
	"dynslice/internal/ir"
	"dynslice/internal/profile"
	"dynslice/internal/trace"
)

func prog(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := compile.Source(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const branchy = `
func main() {
	var n = input();
	var acc = 0;
	var i = 0;
	while (i < n) {
		if (i % 2 == 0) {
			acc = acc + i;
		} else {
			acc = acc - 1;
		}
		if (i % 3 == 0) {
			acc = acc * 2;
		}
		i = i + 1;
	}
	print(acc);
}`

// TestNumberingBijective checks that PathID and Decode are inverses for
// every path of every function.
func TestNumberingBijective(t *testing.T) {
	p := prog(t, branchy)
	for _, f := range p.Funcs {
		n := profile.Number(f)
		for start := range n.Starts {
			total := n.NumPaths[start]
			if total == 0 {
				continue
			}
			seen := map[string]bool{}
			for id := int64(0); id < total; id++ {
				seq, err := n.Decode(start, id)
				if err != nil {
					t.Fatalf("Decode(%v, %d): %v", start, id, err)
				}
				back, err := n.PathID(seq)
				if err != nil {
					t.Fatalf("PathID(%v): %v", seq, err)
				}
				if back != id {
					t.Fatalf("roundtrip %d -> %v -> %d", id, seq, back)
				}
				key := profile.SeqKey(seq)
				if seen[key] {
					t.Fatalf("duplicate sequence for id %d", id)
				}
				seen[key] = true
			}
		}
	}
}

// TestCollectorMatchesNumbering runs the program and checks that every
// collected path has a valid Ball-Larus id (the sequence and arithmetic
// views agree) and that counts sum to the number of cuts.
func TestCollectorMatchesNumbering(t *testing.T) {
	p := prog(t, branchy)
	col := profile.NewCollector(p)
	if _, err := interp.Run(p, interp.Options{Input: []int64{30}, Sink: col}); err != nil {
		t.Fatal(err)
	}
	paths := col.Paths()
	if len(paths) == 0 {
		t.Fatal("no paths collected")
	}
	for _, pp := range paths {
		if pp.ID < 0 {
			t.Errorf("path %v has no valid Ball-Larus id", pp.Seq)
		}
		num := col.Numbering(pp.Fn)
		seq, err := num.Decode(pp.Seq[0], pp.ID)
		if err != nil {
			t.Fatalf("decode collected path: %v", err)
		}
		if profile.SeqKey(seq) != pp.Key {
			t.Errorf("arithmetic and sequence views disagree for %v", pp.Seq)
		}
	}
	// The loop runs 30 times; the loop-body paths must dominate counts.
	var loopCount int64
	for _, pp := range paths {
		if len(pp.Seq) >= 2 {
			loopCount += pp.Count
		}
	}
	if loopCount < 30 {
		t.Errorf("loop paths executed %d times, want >= 30", loopCount)
	}
}

// TestCutsSeparatePathUnits verifies the cut predicate's rules.
func TestCutsSeparatePathUnits(t *testing.T) {
	p := prog(t, `
	func g(v) { return v + 1; }
	func main() {
		var x = 0;
		var i = 0;
		while (i < 3) {
			x = g(x);
			i = i + 1;
		}
		print(x);
	}`)
	cuts := profile.NewCuts(p)
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, s := range b.Succs {
				if b.Fn != s.Fn {
					continue
				}
				if b.IsCallBlock() && !cuts.Between(b, s) {
					t.Errorf("call block %s -> %s must cut", b, s)
				}
				if s.IsContinuation() && !cuts.Between(b, s) {
					t.Errorf("edge into continuation %s must cut", s)
				}
			}
		}
	}
}

// TestHotPathsFiltering checks frequency and length filters.
func TestHotPathsFiltering(t *testing.T) {
	p := prog(t, branchy)
	col := profile.NewCollector(p)
	if _, err := interp.Run(p, interp.Options{Input: []int64{50}, Sink: col}); err != nil {
		t.Fatal(err)
	}
	for _, pp := range col.HotPaths(5, 0) {
		if pp.Count < 5 {
			t.Errorf("hot path with count %d < threshold", pp.Count)
		}
		if len(pp.Seq) < 2 {
			t.Errorf("singleton path %v should be filtered", pp.Seq)
		}
	}
	capped := col.HotPaths(1, 2)
	perFn := map[string]int{}
	for _, pp := range capped {
		perFn[pp.Fn.Name]++
	}
	for fn, n := range perFn {
		if n > 2 {
			t.Errorf("%s has %d paths, cap was 2", fn, n)
		}
	}
}

// refBetween is the cut predicate on a hashed back-edge set, as Cuts
// computed it before its bits became dense.
func refBetween(back map[[2]*ir.Block]bool, prev, next *ir.Block) bool {
	if prev.Fn != next.Fn {
		return true
	}
	if t := prev.Terminator(); t != nil && (t.Op == ir.OpCall || t.Op == ir.OpReturn) {
		return true
	}
	if next.IsCallBlock() || next.IsContinuation() || prev.IsContinuation() {
		return true
	}
	return back[[2]*ir.Block{prev, next}]
}

// refCollector counts paths between reference cuts by SeqKey.
type refCollector struct {
	back   map[[2]*ir.Block]bool
	cur    []*ir.Block
	counts map[string]int64
	blocks map[string]int // path length in blocks
}

func (c *refCollector) Block(b *ir.Block) {
	if len(c.cur) > 0 && refBetween(c.back, c.cur[len(c.cur)-1], b) {
		c.flush()
	}
	c.cur = append(c.cur, b)
}
func (c *refCollector) Stmt(*ir.Stmt, []int64, []int64)  {}
func (c *refCollector) RegionDef(*ir.Stmt, int64, int64) {}
func (c *refCollector) End()                             { c.flush() }
func (c *refCollector) flush() {
	if len(c.cur) > 0 {
		key := profile.SeqKey(c.cur)
		c.counts[key]++
		c.blocks[key] = len(c.cur)
		c.cur = c.cur[:0]
	}
}

// TestCutsMatchBackEdges: on all ten workloads, the dense cut predicate
// agrees with the one on dataflow.BackEdges on every CFG edge, and the
// profile run yields the same paths, counts and hot-path order as
// collecting between the reference cuts.
func TestCutsMatchBackEdges(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all ten workloads")
	}
	for _, w := range bench.Workloads() {
		p := prog(t, w.Src)
		cuts := profile.NewCuts(p)
		back := map[[2]*ir.Block]bool{}
		for _, f := range p.Funcs {
			for e := range dataflow.BackEdges(f) {
				back[e] = true
			}
		}
		edges := 0
		for _, b := range p.Blocks {
			for _, s := range b.Succs {
				edges++
				if got, want := cuts.Between(b, s), refBetween(back, b, s); got != want {
					t.Errorf("%s: Between(%v, %v) = %v, want %v", w.Name, b, s, got, want)
				}
			}
		}
		if edges == 0 || len(back) == 0 {
			t.Fatalf("%s: %d edges, %d back edges", w.Name, edges, len(back))
		}

		col := profile.NewCollector(p)
		ref := &refCollector{back: back, counts: map[string]int64{}, blocks: map[string]int{}}
		if _, err := interp.Run(p, interp.Options{Input: w.Input, Sink: trace.Multi{col, ref}}); err != nil {
			t.Fatal(err)
		}
		paths := col.Paths()
		if len(paths) != len(ref.counts) {
			t.Errorf("%s: %d paths, want %d", w.Name, len(paths), len(ref.counts))
		}
		for _, pp := range paths {
			if pp.Key != profile.SeqKey(pp.Seq) || pp.Count != ref.counts[pp.Key] {
				t.Errorf("%s: path %q count %d, want %d", w.Name, pp.Key, pp.Count, ref.counts[pp.Key])
			}
		}
		// HotPaths ranks by count, then key: the reference counts give
		// the same list.
		var want []string
		for key, n := range ref.counts {
			if n >= 1 && ref.blocks[key] >= 2 {
				want = append(want, key)
			}
		}
		slices.SortFunc(want, func(a, b string) int {
			if c := cmp.Compare(ref.counts[b], ref.counts[a]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		var got []string
		for _, pp := range col.HotPaths(1, 0) {
			got = append(got, pp.Key)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: %d hot paths differ from the reference's %d", w.Name, len(got), len(want))
		}
	}
}
