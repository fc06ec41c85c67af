package opt

import (
	"testing"
	"testing/quick"
)

func TestLabelsFindSorted(t *testing.T) {
	l := &Labels{}
	for i := int64(0); i < 100; i += 2 {
		l.Append(nil, Pair{Td: i * 10, Tu: i})
	}
	for i := int64(0); i < 100; i += 2 {
		td, _, ok := l.Find(i)
		if !ok || td != i*10 {
			t.Fatalf("Find(%d) = %d,%v", i, td, ok)
		}
	}
	if _, _, ok := l.Find(1); ok {
		t.Fatal("Find(1) should miss")
	}
}

// TestLabelsOutOfOrder exercises the re-sort that sealing does after the
// out-of-order appends of recursive superblock suspension.
func TestLabelsOutOfOrder(t *testing.T) {
	l := &Labels{}
	l.Append(nil, Pair{Td: 1, Tu: 10})
	l.Append(nil, Pair{Td: 2, Tu: 30})
	l.Append(nil, Pair{Td: 3, Tu: 20}) // out of order
	l.list.Seal(l.shared)
	for _, c := range []struct{ tu, td int64 }{{10, 1}, {20, 3}, {30, 2}} {
		td, _, ok := l.Find(c.tu)
		if !ok || td != c.td {
			t.Fatalf("Find(%d) = %d,%v want %d", c.tu, td, ok, c.td)
		}
	}
}

func TestLabelsSharedDedupe(t *testing.T) {
	l := &Labels{shared: true}
	l.Append(nil, Pair{Td: 5, Tu: 7})
	l.Append(nil, Pair{Td: 5, Tu: 7}) // cluster partner appends the same pair
	l.Append(nil, Pair{Td: 6, Tu: 9})
	if l.Len() != 2 {
		t.Fatalf("shared list has %d pairs, want 2", l.Len())
	}
	// Out-of-order duplicates get deduped when the list is sealed.
	l.Append(nil, Pair{Td: 1, Tu: 3})
	l.Append(nil, Pair{Td: 5, Tu: 7})
	l.list.Seal(l.shared)
	if l.Len() != 3 {
		t.Fatalf("after sort-dedupe: %d pairs, want 3", l.Len())
	}
}

// TestLabelsFindProperty: Find locates exactly the appended pairs, for any
// permutation of distinct Tu values.
func TestLabelsFindProperty(t *testing.T) {
	f := func(tus []int64) bool {
		seen := map[int64]int64{}
		l := &Labels{}
		for i, tu := range tus {
			if tu < 0 {
				tu = -tu
			}
			if _, dup := seen[tu]; dup {
				continue
			}
			seen[tu] = int64(i)
			l.Append(nil, Pair{Td: int64(i), Tu: tu})
		}
		l.list.Seal(l.shared)
		for tu, td := range seen {
			got, _, ok := l.Find(tu)
			if !ok || got != td {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDefaultEdgeAdoptsDelta: a steady fixed-delta stream with a couple of
// outliers must be adopted after warmup and cover later observations.
func TestDefaultEdgeAdoptsDelta(t *testing.T) {
	var d DefaultEdge
	tgt := InstLoc{Node: 3, Stmt: 7}
	other := InstLoc{Node: 4, Stmt: 1}
	ts := int64(100)
	// Two outliers then a steady delta of 5.
	if d.observe(other, 1, ts) {
		t.Fatal("warmup observations must not be covered")
	}
	ts++
	d.observe(other, 2, ts)
	for i := 0; i < warmObservations; i++ {
		ts++
		d.observe(tgt, ts-5, ts)
	}
	if d.Mode != DefDelta || d.Val != 5 || d.Tgt != tgt {
		t.Fatalf("adopted %v val=%d tgt=%v, want delta 5 to %v", d.Mode, d.Val, d.Tgt, tgt)
	}
	ts++
	if !d.observe(tgt, ts-5, ts) {
		t.Fatal("post-adoption matching observation must be covered")
	}
	ts++
	if d.observe(tgt, ts-6, ts) {
		t.Fatal("mismatching observation must not be covered")
	}
	loc, td, ok := d.Resolve(ts + 1)
	if !ok || loc != tgt || td != ts+1-5 {
		t.Fatalf("Resolve = %v,%d,%v", loc, td, ok)
	}
}

// TestDefaultEdgeAdoptsConst: a constant-source stream (loop-invariant
// use) adopts DefConst.
func TestDefaultEdgeAdoptsConst(t *testing.T) {
	var d DefaultEdge
	tgt := InstLoc{Node: 1, Stmt: 0}
	ts := int64(50)
	for i := 0; i <= warmObservations; i++ {
		ts++
		d.observe(tgt, 42, ts)
	}
	if d.Mode != DefConst || d.Val != 42 {
		t.Fatalf("adopted %v val=%d, want const 42", d.Mode, d.Val)
	}
	loc, td, ok := d.Resolve(ts + 100)
	if !ok || loc != tgt || td != 42 {
		t.Fatalf("Resolve = %v,%d,%v", loc, td, ok)
	}
}

// TestDefaultEdgeNoDominantDies: alternating incompatible patterns leave
// the edge dead.
func TestDefaultEdgeNoDominantDies(t *testing.T) {
	var d DefaultEdge
	ts := int64(0)
	for i := 0; i < warmObservations+4; i++ {
		ts++
		// Rotate over 6 targets and unrelated tds: no candidate can reach
		// the adoption threshold.
		tgt := InstLoc{Node: NodeID(i % 6), Stmt: int32(i % 5)}
		d.observe(tgt, int64(i*i%97), ts)
	}
	if d.Mode != DefDead {
		t.Fatalf("mode = %v, want DefDead", d.Mode)
	}
	if _, _, ok := d.Resolve(ts); ok {
		t.Fatal("dead edge must not resolve")
	}
}

func TestDefaultEdgeKill(t *testing.T) {
	var d DefaultEdge
	d.observe(InstLoc{Node: 1}, 1, 2)
	d.kill()
	if d.Mode != DefDead || d.warm != nil {
		t.Fatal("kill must clear state")
	}
}

// TestStageMonotone checks that each cumulative stage enables a superset
// of the previous one's switches.
func TestStageMonotone(t *testing.T) {
	on := func(c Config) int {
		n := 0
		for _, b := range []bool{c.LocalDefUse, c.UseUse, c.PathSpec, c.ShareData,
			c.InferCD, c.SpecCD, c.ShareCDData, c.AdaptiveDeltas} {
			if b {
				n++
			}
		}
		return n
	}
	prev := -1
	for s := 0; s <= 7; s++ {
		cur := on(Stage(s))
		if cur <= prev {
			t.Fatalf("stage %d enables %d switches, stage %d enabled %d", s, cur, s-1, prev)
		}
		prev = cur
	}
	full := Full()
	if !full.Shortcuts || !full.AdaptiveDeltas {
		t.Fatal("Full must enable shortcuts and adaptive deltas")
	}
}
