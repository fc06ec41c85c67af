package labelblock

import "sort"

// Cursor is one traversal's position in one List: the block it decoded last
// and the index at which its previous search ended, in that block and in
// the tail. A traversal resolves timestamps that cluster around the one it
// resolved last against the same list, so each search gallops outward
// from where the previous one stopped instead of starting over: almost
// every answer lies within a few entries of it. A block is decoded once
// and searched from its decoded pairs until a probe leaves its Tu range.
// A Cursor is single-goroutine state (each run owns a CursorCache);
// the underlying List must be sealed (sorted) and is not mutated while a
// cursor is in use.
type Cursor struct {
	gen         uint32 // run of the owning table that last used the cursor
	bi          int32  // decoded block index; -1 = none
	at          int32  // index in pairs at which the previous search ended
	tat         int32  // index in the tail at which the previous search ended
	first, last int64  // Tu range of the decoded block
	pairs       []Pair
	aux         []int32
}

// find resolves tu against l through the cursor. Probe accounting counts
// real work: a block decode costs N probes (the unit Block.Find charges
// per decoded entry), a search costs its Tu comparisons, and a rejected
// sealed range costs one. hit reports whether the cached block answered
// without a decode — the block-granular merge event.
func (c *Cursor) find(l *List, tu int64) (td int64, aux int32, probes int64, found bool, hit bool) {
	if blocks := l.blocks; len(blocks) > 0 {
		bi := int(c.bi)
		if bi >= 0 && tu >= c.first && tu <= c.last {
			hit = true
		} else if i := sort.Search(len(blocks), func(i int) bool { return blocks[i].LastTu >= tu }); i < len(blocks) && blocks[i].FirstTu <= tu {
			b := &blocks[i]
			c.pairs, c.aux = b.Decode(c.pairs[:0], c.aux[:0])
			c.first, c.last = b.FirstTu, b.LastTu
			// Moving forward, the answer sits near the new block's start;
			// moving back, near its end.
			c.at = 0
			if i < bi {
				c.at = int32(len(c.pairs) - 1)
			}
			c.bi, bi = int32(i), i
			probes = int64(b.N)
		} else {
			bi = -1
			probes = 1 // the boundary comparison that rejected the sealed range
		}
		// A corrupt payload can decode to fewer pairs than the header's
		// N, or to none; the search then covers what was decoded.
		if bi >= 0 && len(c.pairs) > 0 {
			i, p := gallop(c.pairs, int(c.at), tu)
			probes += p
			c.at = int32(min(i, len(c.pairs)-1))
			if i < len(c.pairs) && c.pairs[i].Tu == tu {
				if len(c.aux) == len(c.pairs) {
					aux = c.aux[i]
				}
				return c.pairs[i].Td, aux, probes, true, hit
			}
		}
	}
	// Mirror List.Find: a miss in the sealed range still consults the
	// tail (a straddling tail can hold the pair).
	if len(l.tail) == 0 {
		return 0, 0, probes, false, hit
	}
	i, p := gallop(l.tail, int(c.tat), tu)
	probes += p
	c.tat = int32(min(i, len(l.tail)-1))
	if i < len(l.tail) && l.tail[i].Tu == tu {
		if l.hasAux() {
			aux = l.aux[i]
		}
		return l.tail[i].Td, aux, probes, true, hit
	}
	return 0, 0, probes, false, hit
}

// gallop returns the first index of ps (sorted by Tu, non-empty) whose Tu
// is at least tu — len(ps) when there is none — and the Tu comparisons it
// made. It starts at the hint at and steps outward 1, 2, 4, ... entries
// until the answer is bracketed, then binary-searches the bracket, so an
// answer d entries from the hint costs about 2·log2(d)+2 comparisons: two
// when it is the hint itself or its successor.
func gallop(ps []Pair, at int, tu int64) (int, int64) {
	at = min(at, len(ps)-1)
	probes := int64(1)
	var lo, hi int // the answer lies in [lo, hi]
	if ps[at].Tu < tu {
		lo, hi = at+1, len(ps)
		for step := 1; at+step < len(ps); step <<= 1 {
			probes++
			if ps[at+step].Tu >= tu {
				hi = at + step
				break
			}
			lo = at + step + 1
		}
	} else {
		lo, hi = 0, at
		for step := 1; at-step >= 0; step <<= 1 {
			probes++
			if ps[at-step].Tu < tu {
				lo = at - step + 1
				break
			}
			hi = at - step
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		probes++
		if ps[mid].Tu < tu {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, probes
}

// CursorCache is one traversal's cursor table: one Cursor per list
// number, the numbering being the caller's (OPT numbers its label lists,
// FP its use slots and then its blocks). A table is reused across runs,
// so a query reuses the decode buffers of earlier ones instead of
// allocating them; each run stamps its table afresh (Reset), and a cursor
// an earlier run left behind is reset on first use, so no search position
// or count carries over from one query to the next. The zero value is an
// empty table.
type CursorCache struct {
	cs  []Cursor
	gen uint32
	// Hits counts lookups answered inside an already-decoded block — the
	// block-granular merge events surfaced as slice.batch.block_merges.
	Hits int64
}

// Reset readies the table for a run over lists numbered [0, n).
func (cc *CursorCache) Reset(n int) {
	if cap(cc.cs) < n {
		cc.cs = make([]Cursor, n)
	}
	cc.cs = cc.cs[:n]
	if cc.gen++; cc.gen == 0 {
		// The stamp wrapped: clear every one a cursor could still hold.
		all := cc.cs[:cap(cc.cs)]
		for i := range all {
			all[i].gen = 0
		}
		cc.gen = 1
	}
	cc.Hits = 0
}

// Find is l.Find through the cursor of list number id.
func (cc *CursorCache) Find(id int, l *List, tu int64) (td int64, aux int32, probes int64, found bool) {
	c := &cc.cs[id]
	if c.gen != cc.gen {
		c.gen, c.bi, c.at, c.tat = cc.gen, -1, 0, 0
	}
	td, aux, probes, found, hit := c.find(l, tu)
	if hit {
		cc.Hits++
	}
	return td, aux, probes, found
}
