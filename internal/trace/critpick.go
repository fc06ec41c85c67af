package trace

import (
	"cmp"
	"slices"

	"dynslice/internal/ir"
)

// CritPicker is a Sink that selects slicing criteria the way the paper
// does: distinct memory addresses defined during execution, preferring
// the most recently defined (and distinct defining statements, for
// slice diversity). It is used by the bench harness and by the façade's
// RunOptions.TrackCriteria.
//
// Its tables are dense by address, like the graph builders' last-definition
// tables: lastOrd holds the block ordinal of an address's last definition
// plus one (0: never defined) and defStmt the defining statement.
type CritPicker struct {
	lastOrd []int64
	defStmt []int32
	ord     int64
}

// NewCritPicker returns an empty picker.
func NewCritPicker() *CritPicker { return &CritPicker{} }

// Block implements Sink.
func (c *CritPicker) Block(*ir.Block) { c.ord++ }

// Stmt implements Sink.
func (c *CritPicker) Stmt(s *ir.Stmt, _, defs []int64) {
	for _, a := range defs {
		c.define(a, a+1, s.ID)
	}
}

// RegionDef implements Sink.
func (c *CritPicker) RegionDef(s *ir.Stmt, start, length int64) {
	c.define(start, start+length, s.ID)
}

// define records s, in the current block, as the last definition of the
// addresses [lo, hi).
func (c *CritPicker) define(lo, hi int64, s ir.StmtID) {
	if hi > int64(len(c.lastOrd)) {
		c.lastOrd = ir.GrowTable(c.lastOrd, int(hi))
		c.defStmt = ir.GrowTable(c.defStmt, int(hi))
	}
	for a := lo; a < hi; a++ {
		c.lastOrd[a] = c.ord + 1
		c.defStmt[a] = int32(s)
	}
}

// End implements Sink.
func (c *CritPicker) End() {}

// pick is one defined address with its last definition.
type pick struct {
	addr int64
	ord  int64 // ordinal plus one
	stmt int32
}

// comparePicks is the pick order: most recently defined first, then by
// address.
func comparePicks(p, q pick) int {
	if c := cmp.Compare(q.ord, p.ord); c != 0 {
		return c
	}
	return cmp.Compare(p.addr, q.addr)
}

// Pick returns up to n addresses, most recently defined first,
// preferring distinct defining statements: first each statement's latest
// definition in pick order, then — when fewer than n statements define
// anything — the remaining addresses in pick order.
func (c *CritPicker) Pick(n int) []int64 {
	if n <= 0 {
		return nil
	}
	// One scan: every statement's first address in pick order, and a
	// superset of the first n addresses overall, trimmed back to n
	// whenever it doubles. Addresses ascend, so a later address never
	// displaces an equal ordinal.
	var latest []pick // by statement; ord 0: the statement defines nothing
	var top []pick
	var cut pick // once top is trimmed, its last pick (ord 0 before)
	for a, o := range c.lastOrd {
		if o == 0 {
			continue
		}
		p := pick{addr: int64(a), ord: o, stmt: c.defStmt[a]}
		if int(p.stmt) >= len(latest) {
			latest = slices.Grow(latest, int(p.stmt)+1-len(latest))[:p.stmt+1]
		}
		if l := &latest[p.stmt]; l.ord == 0 || comparePicks(p, *l) < 0 {
			*l = p
		}
		if cut.ord != 0 && comparePicks(p, cut) > 0 {
			continue
		}
		if top = append(top, p); len(top) == 2*n {
			slices.SortFunc(top, comparePicks)
			top, cut = top[:n], top[n-1]
		}
	}

	var firsts []pick
	for _, p := range latest {
		if p.ord != 0 {
			firsts = append(firsts, p)
		}
	}
	slices.SortFunc(firsts, comparePicks)
	var out []int64
	for _, p := range firsts[:min(n, len(firsts))] {
		out = append(out, p.addr)
	}
	if len(out) == n {
		return out
	}
	// Fill: the first n addresses in pick order contain every address
	// the fill can reach, since at most len(out) of them are taken.
	slices.SortFunc(top, comparePicks)
	taken := map[int64]bool{}
	for _, a := range out {
		taken[a] = true
	}
	for _, p := range top {
		if len(out) == n {
			break
		}
		if !taken[p.addr] {
			out = append(out, p.addr)
		}
	}
	return out
}
