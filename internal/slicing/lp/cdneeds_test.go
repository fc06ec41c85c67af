package lp

import (
	"os"
	"path/filepath"
	"testing"

	"dynslice/internal/compile"
	"dynslice/internal/interp"
	"dynslice/internal/ir"
	"dynslice/internal/slicing"
	"dynslice/internal/trace"
)

// hotLoopSrc runs a branchy loop with calls long enough that every block
// execution would walk hundreds of stale control needs if resolved ones
// lingered until their segment ends.
const hotLoopSrc = `
var total = 0;

func bump(x) {
	if (x % 3 == 0) {
		return x;
	}
	return 1;
}

func main() {
	var i = 0;
	while (i < 300) {
		if (i % 2 == 0) {
			total = total + bump(i);
		} else {
			total = total + 1;
		}
		i = i + 1;
	}
	print(total);
}`

// needKey identifies a control need across compactions: needs of one
// block instance carry disjoint criterion masks.
type needKey struct {
	stmt ir.StmtID
	ord  int64
	mask uint64
}

// resolves reports whether block execution be resolves a need that stood
// at depth before it: a frame-creating call ends every need, and a
// same-frame execution of a control ancestor of the need's block
// resolves it.
func resolves(p *ir.Program, be *BlockExec, stmt ir.StmtID, depth int) bool {
	term := be.B.Terminator()
	switch {
	case depth != 0:
		return false
	case term != nil && term.Op == ir.OpReturn:
		return false
	case term != nil && term.Op == ir.OpCall:
		return true
	}
	for _, a := range p.Stmt(stmt).Block.CDAncestors {
		if a == be.B {
			return true
		}
	}
	return false
}

// TestResolvedCDNeedsDroppedAtOnce drives the backward scan of a trace
// whose hot loop lies inside one segment and checks, after every block
// execution, that needCDs holds no need that this block execution
// resolved: each block execution walks live needs only.
func TestResolvedCDNeedsDroppedAtOnce(t *testing.T) {
	p, err := compile.Source(hotLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(p, f, 1<<20)
	if _, err := interp.Run(p, interp.Options{Sink: w}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	segs := w.Segments()
	if len(segs) != 1 {
		t.Fatalf("want the whole run in one segment, got %d", len(segs))
	}
	s := New(p, path, segs)
	var total int64 = -1
	for _, o := range p.Globals {
		if o.Name == "total" {
			total = interp.GlobalBase + o.Off
		}
	}
	c := slicing.AddrCriterion(total)

	q := s.newQuery([]slicing.Criterion{c}, &slicing.Stats{}, nil)
	cur, err := s.src.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	execs, err := cur.Segment(segs[0], q.getBuf)
	if err != nil {
		t.Fatal(err)
	}
	before := map[needKey]int{}
	dropped := 0
	for i := len(execs) - 1; i >= 0; i-- {
		be := &execs[i]
		clear(before)
		for _, n := range q.needCDs {
			before[needKey{n.fromStmt, n.startOrd, n.mask}] = n.depth
		}
		q.processBlockExec(be)
		left := 0
		for _, n := range q.needCDs {
			depth, old := before[needKey{n.fromStmt, n.startOrd, n.mask}]
			if !old {
				continue
			}
			left++
			if resolves(p, be, n.fromStmt, depth) {
				t.Fatalf("ordinal %d (%v): need of stmt %d at ordinal %d resolved but still pending among %d",
					be.Ord, be.B, n.fromStmt, n.startOrd, len(q.needCDs))
			}
		}
		dropped += len(before) - left
	}
	if dropped < 300 {
		t.Fatalf("only %d control needs dropped; the loop is not exercised", dropped)
	}

	want, _, err := s.Slice(c)
	if err != nil {
		t.Fatal(err)
	}
	if !q.outs[0].Equal(want) {
		t.Fatalf("driven scan slice (%d stmts) != Slice (%d stmts)", q.outs[0].Len(), want.Len())
	}
}
