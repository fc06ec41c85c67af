package batch

import (
	"sync"
	"testing"

	"dynslice/internal/ir"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/labelblock"
)

// synthetic DAG: key i contributes statement i%numStmts and leads to keys
// 2i+1 and 2i+2 below limit, plus a convergence edge to i/3 — the shared
// ancestors make mask merging and the expansion memo load-bearing.
const (
	synLimit = 5000
	synStmts = 257
)

func synExpand(k Key, e *Expansion, stats *slicing.Stats, _ *labelblock.CursorCache) {
	stats.Instances++
	stats.LabelProbes += 2
	i := k.K1
	e.Stmts = append(e.Stmts, ir.StmtID(i%synStmts))
	if c := 2*i + 1; c < synLimit {
		e.Targets = append(e.Targets, Key{K1: c})
	}
	if c := 2*i + 2; c < synLimit {
		e.Targets = append(e.Targets, Key{K1: c})
	}
	if i > 0 {
		e.Targets = append(e.Targets, Key{K1: i / 3})
	}
}

func synSeeds(n int) []Task {
	seeds := make([]Task, n)
	for i := range seeds {
		// Spread the seeds over the key space; distinct criterion bits.
		seeds[i] = Task{K: Key{K1: uint64(i * 37 % synLimit)}, Mask: 1 << uint(i%64)}
	}
	return seeds
}

// TestRunDeterministicAcrossWorkers: the result masks, traversal stats, and
// expansion count must be a pure function of the graph and seed set — the
// same under any worker count or schedule.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	for _, nseeds := range []int{1, 7, 63, 64, 65, 200} {
		seeds := synSeeds(nseeds)
		want, wantStats, wantCtr := Run(Config{Workers: 1, NumStmts: synStmts, Expand: synExpand}, seeds)
		if wantCtr.WorkersUsed != 1 {
			t.Fatalf("seeds=%d: workers used = %d want 1", nseeds, wantCtr.WorkersUsed)
		}
		for _, workers := range []int{2, 8} {
			got, gotStats, gotCtr := Run(Config{Workers: workers, NumStmts: synStmts, Expand: synExpand}, seeds)
			for id := range want {
				if got[id] != want[id] {
					t.Fatalf("seeds=%d workers=%d: stmt %d mask %x want %x",
						nseeds, workers, id, got[id], want[id])
				}
			}
			if gotStats != wantStats {
				t.Errorf("seeds=%d workers=%d: stats %+v want %+v", nseeds, workers, gotStats, wantStats)
			}
			if gotCtr.Expansions != wantCtr.Expansions {
				t.Errorf("seeds=%d workers=%d: expansions %d want %d",
					nseeds, workers, gotCtr.Expansions, wantCtr.Expansions)
			}
			if maxW := min(workers, nseeds); gotCtr.WorkersUsed != maxW {
				t.Errorf("seeds=%d workers=%d: workers used = %d want %d",
					nseeds, workers, gotCtr.WorkersUsed, maxW)
			}
		}
	}
}

// TestRunHammer is the work-stealing stress test: many repetitions at high
// worker counts over the shared-ancestor DAG. Under -race it is the proof
// that deque transfer, table growth, mask CAS, and the expansion memo are
// sound together.
func TestRunHammer(t *testing.T) {
	seeds := synSeeds(64)
	want, _, _ := Run(Config{Workers: 1, NumStmts: synStmts, Expand: synExpand}, seeds)
	reps := 8
	if testing.Short() {
		reps = 3
	}
	for rep := 0; rep < reps; rep++ {
		got, _, ctr := Run(Config{Workers: 8, NumStmts: synStmts, Expand: synExpand}, seeds)
		for id := range want {
			if got[id] != want[id] {
				t.Fatalf("rep %d: stmt %d mask %x want %x", rep, id, got[id], want[id])
			}
		}
		if ctr.Expansions <= 0 {
			t.Fatalf("rep %d: no expansions counted", rep)
		}
	}
}

// TestOneSeedRun: a one-criterion run — every single query — runs on one
// worker whatever the pool bound, expands each reachable key once, and
// resolves into the reused buffer without memoizing, so its allocations
// do not grow with the number of expansions.
func TestOneSeedRun(t *testing.T) {
	cfg := Config{Workers: 8, NumStmts: synStmts, Expand: synExpand}
	seeds := synSeeds(1)
	masks, stats, ctr := Run(cfg, seeds)
	if ctr.WorkersUsed != 1 || ctr.Steals != 0 || ctr.Merges != 0 {
		t.Fatalf("counters %+v: want one worker, no steals or merges", ctr)
	}
	if ctr.Expansions != synLimit || stats.Instances != synLimit {
		t.Fatalf("expansions %d, instances %d: want every one of %d keys once",
			ctr.Expansions, stats.Instances, synLimit)
	}
	for id, m := range masks {
		if m != 1 {
			t.Fatalf("stmt %d mask %x want 1", id, m)
		}
	}
	allocs := testing.AllocsPerRun(5, func() { Run(cfg, seeds) })
	if allocs > synLimit/50 {
		t.Fatalf("%.0f allocations for %d expansions: buffer not reused", allocs, synLimit)
	}
}

// TestWorkerCursorTables: every started worker searches through a cursor
// table of its own, sized to Config.Lists — no table is ever in use by two
// expansions at once — and the run reports the tables' block hits, no
// more than the lookups made.
func TestWorkerCursorTables(t *testing.T) {
	l := labelblock.NewList(false)
	for i := int64(0); i < 4*labelblock.BlockSize; i++ {
		l.Append(nil, labelblock.Pair{Td: i, Tu: i}, 0)
	}
	l.Seal(false)
	var mu sync.Mutex
	lookups := map[*labelblock.CursorCache]int64{}
	busy := map[*labelblock.CursorCache]bool{}
	cfg := Config{
		Workers:  4,
		NumStmts: synStmts,
		Lists:    3,
		Expand: func(k Key, e *Expansion, stats *slicing.Stats, cc *labelblock.CursorCache) {
			mu.Lock()
			if busy[cc] {
				t.Error("one cursor table used by two expansions at once")
			}
			busy[cc] = true
			lookups[cc]++
			mu.Unlock()
			if _, _, _, ok := cc.Find(2, &l, int64(k.K1)%int64(l.Len())); !ok {
				t.Errorf("Find(%d) missed", k.K1)
			}
			synExpand(k, e, stats, cc)
			mu.Lock()
			busy[cc] = false
			mu.Unlock()
		},
	}
	_, _, ctr := Run(cfg, synSeeds(16))
	if len(lookups) == 0 || len(lookups) > ctr.WorkersUsed {
		t.Fatalf("%d cursor tables for %d workers", len(lookups), ctr.WorkersUsed)
	}
	var total int64
	for _, n := range lookups {
		total += n
	}
	// Racing losers also call Expand, so the lookup total is >= the
	// published expansion count — never less.
	if total < ctr.Expansions {
		t.Fatalf("cursor tables saw %d lookups, published %d expansions", total, ctr.Expansions)
	}
	if ctr.BlockHits == 0 || ctr.BlockHits > total {
		t.Fatalf("%d block hits over %d lookups", ctr.BlockHits, total)
	}
}

// TestVisitMaskSemantics: visit returns exactly the newly claimed bits and
// the entry is stable across calls and growth.
func TestVisitMaskSemantics(t *testing.T) {
	tb := newTable(4)
	k := Key{K1: 42, K2: 7}
	nv, e1 := tb.visit(k, 0b1011, true)
	if nv != 0b1011 {
		t.Fatalf("first visit claimed %b want 1011", nv)
	}
	nv, e2 := tb.visit(k, 0b1110, true)
	if nv != 0b0100 {
		t.Fatalf("second visit claimed %b want 0100", nv)
	}
	if e1 != e2 {
		t.Fatal("entry moved between visits")
	}
	if nv, _ := tb.visit(k, 0b1111, true); nv != 0 {
		t.Fatalf("third visit claimed %b want 0", nv)
	}
	// Force bucket growth in every shard; earlier entries must survive with
	// their masks intact and without duplication.
	entries := map[Key]*entry{k: e1}
	for i := uint64(0); i < 5000; i++ {
		kk := Key{K1: i, K2: i * 3}
		nv, e := tb.visit(kk, 1, true)
		if prev, dup := entries[kk]; dup && prev != e {
			t.Fatalf("key %v: duplicate entry after growth", kk)
		} else if !dup {
			if nv != 1 {
				t.Fatalf("key %v: fresh visit claimed %b", kk, nv)
			}
			entries[kk] = e
		}
	}
	if nv, e := tb.visit(k, 0b10000, true); nv != 0b10000 || e != e1 {
		t.Fatalf("post-growth visit: claimed %b entry moved=%v", nv, e != e1)
	}
}

// TestTableHomeSlotsSpanShard: the shard index and a key's home bucket
// must come from different hash bits. If both came from the low bits, a
// shard's keys could only start probing at 1 in 8 of its buckets, those
// home slots would always be full, and linear probing would pile the keys
// into long runs behind them.
func TestTableHomeSlotsSpanShard(t *testing.T) {
	tb := newTable(2)
	if len(tb.shards) < 8 {
		t.Fatalf("%d shards: want at least 8", len(tb.shards))
	}
	for i := uint64(0); i < 50000; i++ {
		// OPT-shaped keys: (node, statement copy) and (timestamp, slot).
		tb.visit(Key{K1: i%97<<32 | i%13, K2: i<<16 | 1}, 1, true)
	}
	for s := range tb.shards {
		sh := &tb.shards[s]
		var used, class, classUsed int
		for i, b := range sh.buckets {
			inClass := uint64(i)&tb.smask == uint64(s)
			if inClass {
				class++
			}
			if b != 0 {
				used++
				if inClass {
					classUsed++
				}
			}
		}
		load := float64(used) / float64(len(sh.buckets))
		classLoad := float64(classUsed) / float64(class)
		if classLoad-load > 0.1 {
			t.Errorf("shard %d: buckets whose index matches the shard are %.2f full, all buckets %.2f",
				s, classLoad, load)
		}
	}
}

// TestVisitConcurrent: racing workers claiming overlapping masks must
// partition the bits — every bit claimed exactly once per key.
func TestVisitConcurrent(t *testing.T) {
	tb := newTable(8)
	const keys = 2000
	claimed := make([][]uint64, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		claimed[w] = make([]uint64, keys)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				nv, _ := tb.visit(Key{K1: uint64(i)}, 0xFF, true)
				claimed[w][i] = nv
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < keys; i++ {
		var union, overlap uint64
		for w := 0; w < 8; w++ {
			if union&claimed[w][i] != 0 {
				overlap |= union & claimed[w][i]
			}
			union |= claimed[w][i]
		}
		if union != 0xFF || overlap != 0 {
			t.Fatalf("key %d: union=%x overlap=%x", i, union, overlap)
		}
	}
}

// TestMaskSlices: bit j of a statement's mask lands in slice j, and only
// there.
func TestMaskSlices(t *testing.T) {
	masks := []uint64{0b101, 0, 1 << 63}
	outs := make([]*slicing.Slice, 64)
	for i := range outs {
		outs[i] = slicing.NewSlice()
	}
	MaskSlices(masks, outs)
	check := func(bit int, want ...ir.StmtID) {
		t.Helper()
		got := outs[bit].Stmts()
		if len(got) != len(want) {
			t.Fatalf("slice %d: %v want %v", bit, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("slice %d: %v want %v", bit, got, want)
			}
		}
	}
	check(0, 0)
	check(2, 0)
	check(63, 2)
	check(1)
}
