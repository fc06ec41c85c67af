package trace_test

import (
	"slices"
	"sort"
	"testing"

	"dynslice/internal/bench"
	"dynslice/internal/compile"
	"dynslice/internal/interp"
	"dynslice/internal/ir"
	"dynslice/internal/trace"
)

// refPicker is the map-and-sort criterion picker CritPicker replaced,
// kept as the reference its output must match exactly.
type refPicker struct {
	lastOrd map[int64]int64
	defStmt map[int64]ir.StmtID
	ord     int64
}

func newRefPicker() *refPicker {
	return &refPicker{lastOrd: map[int64]int64{}, defStmt: map[int64]ir.StmtID{}}
}

func (c *refPicker) Block(*ir.Block) { c.ord++ }

func (c *refPicker) Stmt(s *ir.Stmt, _, defs []int64) {
	for _, a := range defs {
		c.lastOrd[a] = c.ord
		c.defStmt[a] = s.ID
	}
}

func (c *refPicker) RegionDef(s *ir.Stmt, start, length int64) {
	for a := start; a < start+length; a++ {
		c.lastOrd[a] = c.ord
		c.defStmt[a] = s.ID
	}
}

func (c *refPicker) End() {}

func (c *refPicker) Pick(n int) []int64 {
	type ent struct {
		addr int64
		ord  int64
		stmt ir.StmtID
	}
	all := make([]ent, 0, len(c.lastOrd))
	for a, o := range c.lastOrd {
		all = append(all, ent{addr: a, ord: o, stmt: c.defStmt[a]})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].ord != all[j].ord {
			return all[i].ord > all[j].ord
		}
		return all[i].addr < all[j].addr
	})
	var out []int64
	seenStmt := map[ir.StmtID]bool{}
	for _, e := range all {
		if len(out) >= n {
			return out
		}
		if seenStmt[e.stmt] {
			continue
		}
		seenStmt[e.stmt] = true
		out = append(out, e.addr)
	}
	// The replaced picker scanned out for duplicates; a set gives the same
	// answer without the quadratic cost at large n.
	taken := map[int64]bool{}
	for _, a := range out {
		taken[a] = true
	}
	for _, e := range all {
		if len(out) >= n {
			break
		}
		if !taken[e.addr] {
			out = append(out, e.addr)
		}
	}
	return out
}

// checkPick compares Pick against the reference for each n.
func checkPick(t *testing.T, name string, got *trace.CritPicker, want *refPicker, ns []int) {
	t.Helper()
	for _, n := range ns {
		if g, w := got.Pick(n), want.Pick(n); !slices.Equal(g, w) {
			t.Errorf("%s: Pick(%d) = %v\nwant %v", name, n, g, w)
		}
	}
}

// TestPickMatchesReference: on every workload's instrumented run, Pick
// returns exactly what the sort-based picker returned, for a single
// criterion, the façade's and the benchmark's counts, and more criteria
// than there are defined addresses.
func TestPickMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all ten workloads")
	}
	for _, w := range bench.Workloads() {
		p, err := compile.Source(w.Src)
		if err != nil {
			t.Fatal(err)
		}
		got, want := trace.NewCritPicker(), newRefPicker()
		if _, err := interp.Run(p, interp.Options{Input: w.Input, Sink: trace.Multi{got, want}}); err != nil {
			t.Fatal(err)
		}
		checkPick(t, w.Name, got, want, []int{1, 25, 200, len(want.lastOrd) + 7})
	}
}

// TestPickTiesAndFill drives a synthetic stream: whole regions share an
// ordinal (ties broken by address), a later block redefines a few
// addresses, and three statements define everything, so every n above
// three exercises the fill phase.
func TestPickTiesAndFill(t *testing.T) {
	p := prog(t, `
	func main() {
		var a[6];
		var x = 1;
		var y = 2;
		print(x + y + a[0]);
	}`)
	var decl, sx, sy *ir.Stmt
	for _, s := range p.Stmts {
		switch {
		case s.Op == ir.OpDeclArr:
			decl = s
		case s.Op == ir.OpAssign && sx == nil:
			sx = s
		case s.Op == ir.OpAssign:
			sy = s
		}
	}
	if decl == nil || sy == nil {
		t.Fatal("test program lacks a region and two assignments")
	}
	got, want := trace.NewCritPicker(), newRefPicker()
	sink := trace.Multi{got, want}
	blk := p.Main.Entry()
	sink.Block(blk)
	sink.RegionDef(decl, 40, 12) // [40, 52): one ordinal, one statement
	sink.Stmt(sx, nil, []int64{60})
	sink.Stmt(sy, nil, []int64{20})
	sink.Block(blk)
	sink.Stmt(sx, nil, []int64{45})
	sink.Stmt(sy, nil, []int64{47})
	sink.RegionDef(decl, 30, 4) // same ordinal as the two above
	sink.End()
	checkPick(t, "synthetic", got, want, []int{0, 1, 2, 3, 4, 5, 9, 17, 40})
}

// TestPickAdversarialOrders drives synthetic streams at the façade's
// scale (200 picks) through the fill phase, since only three statements
// define anything: ordinals that rise with the address (the scan from
// the top meets the best picks first), that fall with it (every address
// beats the cut, so the buffer is cut every n picks), that follow a
// scrambled order, and regions whose tied ordinals straddle the 200th
// pick.
func TestPickAdversarialOrders(t *testing.T) {
	p := prog(t, `
	func main() {
		var a[6];
		var x = 1;
		var y = 2;
		print(x + y + a[0]);
	}`)
	var decl *ir.Stmt
	var assigns []*ir.Stmt
	for _, s := range p.Stmts {
		switch s.Op {
		case ir.OpDeclArr:
			decl = s
		case ir.OpAssign:
			assigns = append(assigns, s)
		}
	}
	if decl == nil || len(assigns) < 2 {
		t.Fatal("test program lacks a region and two assignments")
	}
	blk := p.Main.Entry()
	const words = 3000
	def := func(sink trace.Sink, i, a int) {
		sink.Block(blk)
		sink.Stmt(assigns[i%2], nil, []int64{int64(a)})
	}
	streams := []struct {
		name string
		emit func(trace.Sink)
	}{
		{"rising", func(sink trace.Sink) {
			for i := 0; i < words; i++ {
				def(sink, i, 100+i)
			}
		}},
		{"falling", func(sink trace.Sink) {
			for i := 0; i < words; i++ {
				def(sink, i, 100+words-1-i)
			}
		}},
		{"scrambled", func(sink trace.Sink) {
			for i := 0; i < words; i++ {
				def(sink, i, 100+i*1237%words)
			}
		}},
		{"tie-after-singles", func(sink trace.Sink) {
			// 400 region words share the oldest ordinal; 150 newer
			// single definitions come first, so picks 151-550 tie.
			sink.Block(blk)
			sink.RegionDef(decl, 2000, 400)
			for i := 0; i < 150; i++ {
				def(sink, i, 100+7*i)
			}
		}},
		{"tie-first", func(sink trace.Sink) {
			// The newest block defines a 500-word region above and below
			// older singles, and redefines three of them.
			for i := 0; i < 300; i++ {
				def(sink, i, 1000+i)
			}
			sink.Block(blk)
			sink.RegionDef(decl, 900, 500)
			sink.Stmt(assigns[0], nil, []int64{1399})
			sink.Stmt(assigns[1], nil, []int64{950})
			sink.Stmt(assigns[0], nil, []int64{1250})
		}},
	}
	for _, st := range streams {
		got, want := trace.NewCritPicker(), newRefPicker()
		sink := trace.Multi{got, want}
		st.emit(sink)
		sink.End()
		checkPick(t, st.name, got, want, []int{1, 3, 4, 199, 200, 201, 400, words + 10})
	}
}
