package trace

import (
	"cmp"
	"math/bits"
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

// Reserve sizes the picker's tables for an address space of n words,
// the Result.Watermark of an earlier run on the same input, so that the
// run never regrows them. A wrong n costs only growth.
func (c *CritPicker) Reserve(n int64) {
	c.lastOrd = ir.ReserveTable(c.lastOrd, n)
	c.defStmt = ir.ReserveTable(c.defStmt, n)
}

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
//
// It costs expected O(N) in the N-word address space whatever the order
// of the definitions, plus O(n log n) to order the answer.
func (c *CritPicker) Pick(n int) []int64 {
	if n <= 0 {
		return nil
	}
	// One scan, from the highest address down: every statement's first
	// address in pick order, and a superset of the first n addresses
	// overall, cut back to exactly those n by selection whenever it
	// reaches 2n. Later calls take fresh frames at higher addresses, so
	// the cut soon rejects nearly every address; in any order, a cut
	// costs O(n) and follows n new picks.
	var latest []pick // by statement; ord 0: the statement defines nothing
	var top []pick
	var cut pick // once top is cut, its last pick (ord 0 before)
	for a := len(c.lastOrd) - 1; a >= 0; a-- {
		o := c.lastOrd[a]
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
			selectPicks(top, n)
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

// selectPicks reorders ps so that ps[:k] hold its first k picks in pick
// order, with the k-th at ps[k-1]. It is a quickselect on a
// median-of-three pivot, O(len(ps)) expected on any input order; ranges
// that keep splitting badly are sorted instead. Picks are distinct
// (addresses are), so the order is strict.
func selectPicks(ps []pick, k int) {
	lo, hi := 0, len(ps) // ps[k-1] belongs in ps[lo:hi]
	for budget := 2 * bits.Len(uint(len(ps))); hi-lo > 16 && budget > 0; budget-- {
		m := lo + (hi-lo)/2
		if comparePicks(ps[m], ps[lo]) < 0 {
			ps[m], ps[lo] = ps[lo], ps[m]
		}
		if comparePicks(ps[hi-1], ps[lo]) < 0 {
			ps[hi-1], ps[lo] = ps[lo], ps[hi-1]
		}
		if comparePicks(ps[hi-1], ps[m]) < 0 {
			ps[hi-1], ps[m] = ps[m], ps[hi-1]
		}
		// ps[m] is the median of three; partition around it.
		ps[m], ps[hi-1] = ps[hi-1], ps[m]
		pivot, i := ps[hi-1], lo
		for j := lo; j < hi-1; j++ {
			if comparePicks(ps[j], pivot) < 0 {
				ps[i], ps[j] = ps[j], ps[i]
				i++
			}
		}
		ps[i], ps[hi-1] = ps[hi-1], ps[i]
		switch {
		case k-1 < i:
			hi = i
		case k-1 > i:
			lo = i + 1
		default:
			return
		}
	}
	slices.SortFunc(ps[lo:hi], comparePicks)
}
