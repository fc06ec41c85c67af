package batch

import (
	"math"
	"sync"
	"testing"

	"dynslice/internal/ir"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/labelblock"
)

// synthetic DAG: point i contributes statement i%synStmts and leads to
// points 2i+1 and 2i+2 below synLimit, plus a convergence edge to i/3 —
// the shared ancestors make mask merging and the expansion memo
// load-bearing. Point i sits at index i%synWidth of execution i/synWidth.
const (
	synLimit = 5000
	synStmts = 257
	synWidth = 3
)

func synKey(i uint64) Key {
	return Key{Ref: i, TS: int64(i / synWidth), Idx: int32(i % synWidth), Width: synWidth}
}

func synExpand(k Key, e *Expansion, stats *slicing.Stats, _ *labelblock.CursorCache) {
	stats.Instances++
	stats.LabelProbes += 2
	i := k.Ref
	e.Stmts = append(e.Stmts, ir.StmtID(i%synStmts))
	if c := 2*i + 1; c < synLimit {
		e.Targets = append(e.Targets, synKey(c))
	}
	if c := 2*i + 2; c < synLimit {
		e.Targets = append(e.Targets, synKey(c))
	}
	if i > 0 {
		e.Targets = append(e.Targets, synKey(i/3))
	}
}

func synConfig(fl *FreeList) Config {
	return Config{
		States:     fl,
		Timestamps: (synLimit + synWidth - 1) / synWidth,
		NumStmts:   synStmts,
		Expand:     synExpand,
	}
}

// synSeeds spreads n seed keys over the point space.
func synSeeds(n int) []Key {
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = synKey(uint64(i * 37 % synLimit))
	}
	return keys
}

// synReach returns the number of distinct points reachable from the
// seeds, the expansions a run must make.
func synReach(seeds []Key) int64 {
	seen := map[uint64]bool{}
	var stack []uint64
	for _, k := range seeds {
		stack = append(stack, k.Ref)
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[i] {
			continue
		}
		seen[i] = true
		var e Expansion
		synExpand(synKey(i), &e, &slicing.Stats{}, nil)
		for _, k := range e.Targets {
			stack = append(stack, k.Ref)
		}
	}
	return int64(len(seen))
}

type result struct {
	outs  []*slicing.Slice
	stats slicing.Stats
	ctr   Counters
}

func runSlices(cfg Config, keys []Key) result {
	outs, stats, ctr := Slices(cfg, keys)
	return result{outs, *stats, ctr}
}

func sameResult(t *testing.T, what string, got, want result) {
	t.Helper()
	for i := range want.outs {
		if !got.outs[i].Equal(want.outs[i]) {
			t.Fatalf("%s: slice %d %v want %v", what, i, got.outs[i].Stmts(), want.outs[i].Stmts())
		}
	}
	if got.stats != want.stats || got.ctr != want.ctr {
		t.Fatalf("%s: stats %+v counters %+v, want %+v %+v", what, got.stats, got.ctr, want.stats, want.ctr)
	}
}

// TestRunRecycledMatchesFresh: the slices, traversal stats and counters
// are a function of the graph and the seed set alone. Runs repeated
// through one free list — whose states keep the stamps, arenas and
// cursor table of earlier runs — match a fresh state, also after the run
// stamp wraps.
func TestRunRecycledMatchesFresh(t *testing.T) {
	var fl FreeList
	for _, nseeds := range []int{1, 7, 63, 64, 65, 200} {
		seeds := synSeeds(nseeds)
		want := runSlices(synConfig(&FreeList{}), seeds)
		for rep := 0; rep < 3; rep++ {
			sameResult(t, "recycled", runSlices(synConfig(&fl), seeds), want)
		}
		// Force the next run's stamp to wrap.
		s := fl.get()
		s.stamp = math.MaxUint32
		fl.put(s)
		sameResult(t, "after stamp wrap", runSlices(synConfig(&fl), seeds), want)
		if s.stamp == math.MaxUint32 || s.stamp == 0 {
			t.Fatalf("stamp %d after the wrapping run", s.stamp)
		}
	}
	if len(fl.free) != 1 {
		t.Fatalf("free list holds %d states after sequential runs, want 1", len(fl.free))
	}

	// A stale stamp equal to the wrapped one: executions 0–9 keep run 1's
	// stamp while run 2 touches only 10–19, so once the stamp wraps back
	// to 1 only the clearing tells them from this run's.
	isolated := Config{
		States:     &FreeList{},
		Timestamps: 20,
		NumStmts:   20,
		Expand: func(k Key, e *Expansion, _ *slicing.Stats, _ *labelblock.CursorCache) {
			e.Stmts = append(e.Stmts, ir.StmtID(k.TS))
		},
	}
	seeds := func(from int64) []Key {
		var keys []Key
		for ts := from; ts < from+10; ts++ {
			keys = append(keys, Key{TS: ts, Width: 1})
		}
		return keys
	}
	first := runSlices(isolated, seeds(0))
	runSlices(isolated, seeds(10))
	s := isolated.States.get()
	s.stamp = math.MaxUint32
	isolated.States.put(s)
	sameResult(t, "stale stamp after wrap", runSlices(isolated, seeds(0)), first)
}

// TestMultiCriterionIsUnionOfSingles: a 64-criterion run gives every
// criterion the slice its single run gives — each statement's mask is the
// OR of the single runs' — and expands each reachable point once, however
// many criteria reach it.
func TestMultiCriterionIsUnionOfSingles(t *testing.T) {
	var fl FreeList
	seeds := synSeeds(64)
	multi := runSlices(synConfig(&fl), seeds)
	for i, k := range seeds {
		one := runSlices(synConfig(&fl), []Key{k})
		if !one.outs[0].Equal(multi.outs[i]) {
			t.Fatalf("criterion %d: batched slice differs from its single run", i)
		}
	}
	reach := synReach(seeds)
	if multi.ctr.Expansions != reach || multi.stats.Instances != reach {
		t.Fatalf("%d expansions, %d instances: want each of %d reachable points once",
			multi.ctr.Expansions, multi.stats.Instances, reach)
	}
	if multi.ctr.Dropped != 0 {
		t.Fatalf("%d keys dropped on a valid graph", multi.ctr.Dropped)
	}
}

// TestDroppedKeys: a key whose timestamp lies outside [0, Timestamps), a
// first touch with no width, and an index beyond the width first recorded
// at its timestamp are dropped and counted, never expanded, and leave
// every other execution's points alone.
func TestDroppedKeys(t *testing.T) {
	bad := []Key{
		{Ref: 100, TS: -1, Idx: 0, Width: 2},
		{Ref: 101, TS: 4, Idx: 0, Width: 2}, // Timestamps is 4
		{Ref: 102, TS: 1, Idx: 0, Width: 0}, // first touch of execution 1 without a width
		{Ref: 103, TS: 0, Idx: 2, Width: 9}, // execution 0 recorded width 2
		{Ref: 104, TS: 0, Idx: -1, Width: 2},
	}
	cfg := Config{
		States:     &FreeList{},
		Timestamps: 4,
		NumStmts:   8,
		Expand: func(k Key, e *Expansion, stats *slicing.Stats, _ *labelblock.CursorCache) {
			stats.Instances++
			if k.Ref >= 100 {
				t.Errorf("dropped key %+v expanded", k)
				return
			}
			e.Stmts = append(e.Stmts, ir.StmtID(k.Ref))
			if k.Ref == 0 {
				e.Targets = append(e.Targets, Key{Ref: 1, TS: 0, Idx: 1, Width: 2})
				e.Targets = append(e.Targets, bad...)
				e.Targets = append(e.Targets, Key{Ref: 2, TS: 3, Idx: 0, Width: 1})
			}
		},
	}
	r := runSlices(cfg, []Key{{Ref: 0, TS: 0, Idx: 0, Width: 2}})
	if r.ctr.Dropped != int64(len(bad)) {
		t.Fatalf("%d keys dropped, want %d", r.ctr.Dropped, len(bad))
	}
	if got := r.outs[0].Stmts(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("slice %v, want [0 1 2]", got)
	}
	if r.stats.Instances != 3 || r.ctr.Expansions != 3 {
		t.Fatalf("stats %+v counters %+v: want the three valid points expanded once", r.stats, r.ctr)
	}
}

// TestRunHammer: concurrent runs over one graph's free list each take a
// state of their own. Under -race it is the proof that the free list is
// the only state the runs share.
func TestRunHammer(t *testing.T) {
	var fl FreeList
	sizes := []int{1, 64, 65}
	want := make([]result, len(sizes))
	for i, n := range sizes {
		want[i] = runSlices(synConfig(&FreeList{}), synSeeds(n))
	}
	reps := 4
	if testing.Short() {
		reps = 2
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				i := (w + rep) % len(sizes)
				got := runSlices(synConfig(&fl), synSeeds(sizes[i]))
				for j := range want[i].outs {
					if !got.outs[j].Equal(want[i].outs[j]) {
						t.Errorf("worker %d rep %d: slice %d differs", w, rep, j)
						return
					}
				}
				if got.stats != want[i].stats || got.ctr != want[i].ctr {
					t.Errorf("worker %d rep %d: stats %+v counters %+v, want %+v %+v",
						w, rep, got.stats, got.ctr, want[i].stats, want[i].ctr)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if len(fl.free) > keepStates {
		t.Fatalf("free list holds %d states, bound %d", len(fl.free), keepStates)
	}
}

// TestOneSeedRun: a one-criterion run — every single query — expands each
// reachable point once, merges nothing, and memoizes nothing, so once its
// state is recycled its allocations do not grow with the number of
// expansions.
func TestOneSeedRun(t *testing.T) {
	var fl FreeList
	cfg := synConfig(&fl)
	seeds := synSeeds(1)
	r := runSlices(cfg, seeds)
	if r.ctr.Merges != 0 || r.ctr.Dropped != 0 {
		t.Fatalf("counters %+v: want no merges or drops", r.ctr)
	}
	if r.ctr.Expansions != synLimit || r.stats.Instances != synLimit {
		t.Fatalf("expansions %d, instances %d: want every one of %d points once",
			r.ctr.Expansions, r.stats.Instances, synLimit)
	}
	if got := r.outs[0].Len(); got != synStmts {
		t.Fatalf("slice holds %d statements, want all %d", got, synStmts)
	}
	if s := fl.free[0]; len(s.spans) != 0 || len(s.memo) != 0 {
		t.Fatalf("one-criterion run memoized %d expansions over %d memo slots", len(s.spans), len(s.memo))
	}
	allocs := testing.AllocsPerRun(5, func() { Slices(cfg, seeds) })
	if allocs > synLimit/50 {
		t.Fatalf("%.0f allocations for %d expansions: state not reused", allocs, synLimit)
	}
}

// TestWorkerCursorTables: every run searches through a cursor table of
// its own, sized to Config.Lists — concurrent runs on one graph never
// share one — and the run reports the table's block hits, no more than
// the lookups made.
func TestWorkerCursorTables(t *testing.T) {
	l := labelblock.NewList(false)
	for i := int64(0); i < 4*labelblock.BlockSize; i++ {
		l.Append(nil, labelblock.Pair{Td: i, Tu: i}, 0)
	}
	l.Seal(false)
	var mu sync.Mutex
	busy := map[*labelblock.CursorCache]bool{}
	var fl FreeList
	cfg := synConfig(&fl)
	cfg.Lists = 3
	cfg.Expand = func(k Key, e *Expansion, stats *slicing.Stats, cc *labelblock.CursorCache) {
		mu.Lock()
		if busy[cc] {
			t.Error("one cursor table used by two expansions at once")
		}
		busy[cc] = true
		mu.Unlock()
		if _, _, _, ok := cc.Find(2, &l, int64(k.Ref)%int64(l.Len())); !ok {
			t.Errorf("Find(%d) missed", k.Ref)
		}
		synExpand(k, e, stats, cc)
		mu.Lock()
		busy[cc] = false
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, ctr := Slices(cfg, synSeeds(16))
			if ctr.BlockHits == 0 || ctr.BlockHits > ctr.Expansions {
				t.Errorf("%d block hits over %d lookups", ctr.BlockHits, ctr.Expansions)
			}
		}()
	}
	wg.Wait()
}

// TestVisitMaskSemantics: a push stacks exactly the newly claimed bits of
// its point, points of one execution keep separate masks, and a point's
// arena slot stays put as later executions are appended.
func TestVisitMaskSemantics(t *testing.T) {
	s := &state{}
	s.begin(&Config{Timestamps: 10, NumStmts: 1})
	claim := func(k Key, mask uint64) uint64 {
		t.Helper()
		n := len(s.stack)
		s.push(k, mask)
		if len(s.stack) == n {
			return 0
		}
		top := s.stack[len(s.stack)-1]
		if top.k != k {
			t.Fatalf("stacked %+v for %+v", top.k, k)
		}
		return top.mask
	}
	k := Key{TS: 7, Idx: 1, Width: 3}
	if nv := claim(k, 0b1011); nv != 0b1011 {
		t.Fatalf("first visit claimed %b want 1011", nv)
	}
	at := s.stack[0].at
	if nv := claim(k, 0b1110); nv != 0b0100 {
		t.Fatalf("second visit claimed %b want 0100", nv)
	}
	if nv := claim(k, 0b1111); nv != 0 {
		t.Fatalf("third visit claimed %b want 0", nv)
	}
	if nv := claim(Key{TS: 7, Idx: 2, Width: 3}, 0b1); nv != 0b1 {
		t.Fatalf("sibling point claimed %b want 1", nv)
	}
	for ts := int64(0); ts < 10; ts++ {
		claim(Key{TS: ts, Idx: 0, Width: 5}, 1)
	}
	if nv := claim(k, 0b10000); nv != 0b10000 || s.stack[len(s.stack)-1].at != at {
		t.Fatalf("later visit: claimed %b at %d, first at %d", nv, s.stack[len(s.stack)-1].at, at)
	}
	if s.masks[at] != 0b11111 {
		t.Fatalf("point mask %b want 11111", s.masks[at])
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
