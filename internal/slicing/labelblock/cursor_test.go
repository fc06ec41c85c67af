package labelblock

import "testing"

// TestCursorCacheFind: lookups through a cursor table must agree with
// List.Find on every probe (present and absent, ascending, descending, in
// the sealed blocks and in the tail, across two lists), sequential probes
// must be answered from the decoded block at a few comparisons each, and
// a recycled table must start each run afresh: the same lookups cost the
// same probes and hits.
func TestCursorCacheFind(t *testing.T) {
	l := NewList(true)
	n := BlockSize*4 + 21
	for i := 0; i < n; i++ {
		l.Append(nil, Pair{Td: int64(i), Tu: int64(i*3 + 1)}, int32(i%5))
	}
	l.Seal(false)
	l2 := NewList(false)
	for i := 0; i < BlockSize*2; i++ {
		l2.Append(nil, Pair{Td: int64(i * 7), Tu: int64(i*5 + 2)}, 0)
	}
	l2.Seal(false)
	lists := []*List{&l, &l2}
	limit := int64(n*3 + 10)

	var cc CursorCache
	run := func() (probes, hits int64) {
		cc.Reset(len(lists))
		check := func(id int, tu int64) {
			wantTd, wantAux, _, wantOk := lists[id].Find(tu)
			gotTd, gotAux, p, gotOk := cc.Find(id, lists[id], tu)
			if gotOk != wantOk || (gotOk && (gotTd != wantTd || gotAux != wantAux)) {
				t.Fatalf("list %d Find(%d) = %d,%d,%v want %d,%d,%v", id, tu, gotTd, gotAux, gotOk, wantTd, wantAux, wantOk)
			}
			probes += p
		}
		for tu := int64(0); tu < limit; tu++ {
			check(0, tu)
		}
		for tu := limit; tu >= 0; tu-- {
			for id := range lists {
				check(id, tu)
			}
		}
		return probes, cc.Hits
	}
	probes, hits := run()
	if hits == 0 {
		t.Fatal("sequential probes never hit the cached block")
	}
	// 3 passes over the range (one list ascending, two descending), each
	// probe one or two comparisons from the previous, plus one decode per
	// block and pass.
	lookups := 3 * limit
	if bound := 3*lookups + 3*int64(n+BlockSize); probes > bound {
		t.Fatalf("%d probes for %d lookups, want at most %d", probes, lookups, bound)
	}
	if p2, h2 := run(); p2 != probes || h2 != hits {
		t.Fatalf("recycled table: %d probes, %d hits; first run %d, %d", p2, h2, probes, hits)
	}
}
