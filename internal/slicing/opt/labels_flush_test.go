package opt

import (
	"slices"
	"testing"

	"dynslice/internal/slicing/labelblock"
)

// TestLabelsLenAfterFlush is the regression test for the shared-list
// accounting bug: Len used to be maintained by in-place `count -=`
// adjustments during sort-dedupe, which went wrong once hybrid flushing
// had moved pairs out of the resident list. Len is now derived
// (flushed + resident), so an out-of-order append followed by a flush and
// a dedupe must still report every surviving pair exactly once.
func TestLabelsLenAfterFlush(t *testing.T) {
	ar := labelblock.NewArena()
	l := &Labels{shared: true}
	l.list.SetDedupe()

	// Fill past one block so the flush has sealed blocks to move.
	for i := int64(0); i < 200; i++ {
		l.Append(ar, Pair{Td: i, Tu: 1000 + i*2})
	}
	// Straggler from a suspended superblock execution: out of order, plus
	// an exact duplicate a cluster partner would append.
	l.Append(ar, Pair{Td: 3, Tu: 1006})
	l.Append(ar, Pair{Td: 3, Tu: 1006})
	// Non-immediate duplicate of pair i=150 (Td 150, Tu 1300): append-time
	// dedupe only catches immediate repeats, so this sits in the dirty
	// tail until the flush, which must drop it rather than write it to the
	// epoch file and count it into flushed.
	l.Append(ar, Pair{Td: 150, Tu: 1300})
	if l.Len() != 202 { // 200 + straggler + tail dup; immediate dup deduped on append
		t.Fatalf("pre-flush Len = %d, want 202", l.Len())
	}

	// Simulate a hybrid epoch flush at Tu >= 1200 (exactly what
	// flushEpoch does per label). Split applies the shared-list dedupe
	// policy: both lingering duplicates — the straggler copy of (3, 1006)
	// and the tail copy of (150, 1300) — are dropped here.
	blocks := l.list.Split(ar, 1200)
	var moved int64
	for i := range blocks {
		moved += int64(blocks[i].N)
	}
	if moved != 100 { // pairs with Tu in [1200, 1398], duplicate excluded
		t.Fatalf("flush moved %d pairs, want 100", moved)
	}
	l.flushed += moved
	if l.Len() != 200 {
		t.Fatalf("post-flush Len = %d, want 200 (flushed %d)", l.Len(), moved)
	}

	// Out-of-order append + dedupe after the flush: the non-immediate
	// duplicate must be dropped without double-counting flushed pairs.
	l.Append(ar, Pair{Td: 7, Tu: 1014})
	l.Append(ar, Pair{Td: 50, Tu: 1100})
	l.Append(ar, Pair{Td: 7, Tu: 1014}) // non-immediate: survives until the seal
	l.list.Seal(l.shared)
	if l.Len() != 202 {
		t.Fatalf("post-flush dedupe Len = %d, want 202", l.Len())
	}

	// Resident pairs below the cut stay findable.
	for _, c := range []struct{ tu, td int64 }{{1006, 3}, {1014, 7}, {1100, 50}, {1198, 99}} {
		td, _, ok := l.Find(c.tu)
		if !ok || td != c.td {
			t.Fatalf("Find(%d) = %d,%v want %d", c.tu, td, ok, c.td)
		}
	}
	// Flushed pairs are gone from the resident list but present in the
	// moved blocks (the epoch file's content).
	if _, _, ok := l.Find(1398); ok {
		t.Fatal("Find(1398) hit the resident list after its epoch was flushed")
	}
	if td, _, _, ok := labelblock.FindBlocks(blocks, 1398); !ok || td != 199 {
		t.Fatalf("flushed blocks Find(1398) = %d,%v want 199", td, ok)
	}
	if td, _, _, ok := labelblock.FindBlocks(blocks, 1300); !ok || td != 150 {
		t.Fatalf("flushed blocks Find(1300) = %d,%v want 150", td, ok)
	}
}

// FuzzLabelsFindRoundTrip appends a fuzzer-chosen mix of in- and
// out-of-order pairs and checks Find against a linear scan of everything
// appended. The same timestamps are then looked up through one cursor
// table — in append order, in reverse, as ±1 neighbours and as values
// never appended — and every galloping answer must equal Find's.
func FuzzLabelsFindRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 250, 6})
	f.Add([]byte{200, 1, 200, 2, 0, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		l := &Labels{}
		want := map[int64]int64{}
		var order []int64
		tu := int64(0)
		for len(data) >= 2 {
			// Byte 0 is a signed Tu step (out-of-order when negative),
			// byte 1 seeds the Td distance.
			step := int64(int8(data[0]))
			td := tu - int64(data[1])%97
			data = data[2:]
			tu += step
			if _, dup := want[tu]; dup {
				continue
			}
			want[tu] = td
			order = append(order, tu)
			l.Append(nil, Pair{Td: td, Tu: tu})
		}
		l.list.Seal(l.shared)
		for u, d := range want {
			got, _, ok := l.Find(u)
			if !ok || got != d {
				t.Fatalf("Find(%d) = %d,%v want %d,true over %d pairs", u, got, ok, d, len(want))
			}
		}
		// A Tu never appended must miss.
		probe := tu + 1
		for {
			if _, present := want[probe]; !present {
				break
			}
			probe++
		}
		if _, _, ok := l.Find(probe); ok {
			t.Fatalf("Find(%d) hit; value was never appended", probe)
		}

		var cc labelblock.CursorCache
		cc.Reset(1)
		viaCursor := func(u int64) {
			wantTd, _, wantOk := l.Find(u)
			got, _, ok := l.findCursor(&cc, u)
			if ok != wantOk || got != wantTd {
				t.Fatalf("cursor Find(%d) = %d,%v want %d,%v over %d pairs", u, got, ok, wantTd, wantOk, len(want))
			}
		}
		for _, u := range order {
			viaCursor(u)
		}
		for i := len(order) - 1; i >= 0; i-- {
			viaCursor(order[i])
		}
		for _, u := range order {
			viaCursor(u - 1)
			viaCursor(u + 1)
		}
		// Never appended: probe, and a value below the smallest.
		viaCursor(probe)
		viaCursor(slices.Min(append(order, probe)) - 1)
	})
}
