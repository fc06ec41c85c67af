// Package batch is the one traversal kernel of the FP and OPT slicers:
// single, observed and batched queries (slicing.Slicer, slicing.Explainer,
// slicing.MultiSlicer) all run here, a single query being the
// one-criterion batch. A run is one loop on the caller's goroutine over a
// LIFO task stack, and every traversal point carries a 64-bit criterion
// mask in visited state indexed by timestamp:
//
//   - Placement: the backend places every key. A timestamp is one
//     execution (an FP block execution, an OPT node execution), and a
//     point is a pair: the timestamp and the point's index among that
//     execution's points. The key also gives the execution's width, its
//     number of points.
//   - Visited state: per timestamp, a run stamp and the offset of the
//     execution's masks in a per-run arena, filled on the execution's
//     first touch. A stale stamp means "not visited in this run", so
//     nothing is hashed and nothing is cleared between runs. A key whose
//     timestamp is out of range, or whose index does not fit the width
//     first recorded at its timestamp, is dropped and counted.
//   - Expansion memo: a point that may be reached again with new
//     criterion bits keeps its expansion (the statements contributed and
//     the downstream points reached) as a span of per-run append-only
//     arenas, so it is resolved once per run.
//   - Label cursors: a run searches label lists through its own cursor
//     table (labelblock.CursorCache), indexed by the caller's list
//     numbers, so every lookup starts where the previous lookup in that
//     list ended.
//   - Recycling: all of the above is one state per run, recycled per graph
//     through a small free list (FreeList). Concurrent queries on one
//     graph each take their own state.
package batch

import (
	"math/bits"
	"slices"
	"sync"

	"dynslice/internal/ir"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/labelblock"
)

// Key is one traversal point as its backend places it. The kernel indexes
// its visited state by (TS, Idx) and hands Ref back to Expand untouched.
// Equal (TS, Idx) pairs must denote the same expansion.
type Key struct {
	Ref   uint64 // the backend's own identity of the point
	TS    int64  // the execution the point belongs to
	Idx   int32  // the point's index among the execution's points
	Width int32  // how many points the execution has
}

// Expansion is the resolution of one traversal point: the statements it
// contributes to every criterion that reaches it, and the downstream
// points it leads to.
type Expansion struct {
	Stmts   []ir.StmtID
	Targets []Key
}

// Counters reports kernel-level work for telemetry.
type Counters struct {
	Merges     int64 // adjacent tasks for one point coalesced before expansion (mask OR-merge)
	Expansions int64 // unique traversal points expanded
	BlockHits  int64 // label lookups answered inside a block a cursor had decoded
	Dropped    int64 // keys outside [0, Timestamps) or outside their execution's width
}

// Config configures one graph's traversal.
type Config struct {
	// States is the graph's free list of run states.
	States *FreeList
	// Timestamps bounds the keys: a key's TS must lie in [0, Timestamps).
	Timestamps int64
	// NumStmts sizes the dense per-statement result masks (statement IDs
	// index them).
	NumStmts int
	// Lists sizes the cursor table: Expand searches label lists numbered
	// [0, Lists).
	Lists int
	// Expand resolves one traversal point by appending to exp, whose
	// slices hold earlier expansions of the run: Expand must only append.
	// stats counts the point's resolution work; cc is the run's cursor
	// table.
	Expand func(k Key, exp *Expansion, stats *slicing.Stats, cc *labelblock.CursorCache)
}

// Slices answers one criterion per seed key: one run per 64-key chunk,
// key i owning bit i%64 of its chunk. It returns the slices, and the
// stats and counters summed over the chunks. Masks and stats are a
// function of the graph and the keys alone.
func Slices(cfg Config, keys []Key) ([]*slicing.Slice, *slicing.Stats, Counters) {
	outs := make([]*slicing.Slice, len(keys))
	for i := range outs {
		outs[i] = slicing.NewSlice()
	}
	s := cfg.States.get()
	defer cfg.States.put(s)
	s.stats, s.ctr = slicing.Stats{}, Counters{}
	for base := 0; base < len(keys); base += 64 {
		chunk := keys[base:min(base+64, len(keys))]
		s.run(&cfg, chunk)
		MaskSlices(s.result, outs[base:base+len(chunk)])
	}
	stats := s.stats
	return outs, &stats, s.ctr
}

// keepStates bounds a graph's free list. A state holds the arenas of the
// largest run it served, so the list keeps only as many as one or two
// concurrent queries need; a state put back beyond the bound is left to
// the collector.
const keepStates = 2

// FreeList recycles one graph's run states across queries. It is a plain
// mutex-guarded slice rather than a sync.Pool, so a garbage collection
// does not empty it and the next query does not rebuild its arenas. The
// zero value is an empty list.
type FreeList struct {
	mu   sync.Mutex
	free []*state
}

func (fl *FreeList) get() *state {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	n := len(fl.free)
	if n == 0 {
		return &state{}
	}
	s := fl.free[n-1]
	fl.free = fl.free[:n-1]
	return s
}

func (fl *FreeList) put(s *state) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if len(fl.free) < keepStates {
		fl.free = append(fl.free, s)
	}
}

// exec is one timestamp's visited state: the run that first touched the
// execution this run, the width recorded then, and the offset of its
// points in the run's arenas.
type exec struct {
	stamp uint32
	width int32
	off   int32
}

// task is a point on the stack with the criterion bits it carries; at is
// the point's offset in the run's arenas.
type task struct {
	k    Key
	mask uint64
	at   int32
}

// span locates one memoized expansion in the run's arenas.
type span struct {
	s0, s1, t0, t1 int32
}

// state is one run's state, reused by the next run that takes it.
type state struct {
	stamp uint32
	execs []exec   // indexed by timestamp
	masks []uint64 // per point: claimed criterion bits
	memo  []int32  // per point, in runs of several criteria: 1 + index into spans; 0 = none

	spans []span
	exp   Expansion // arenas: memoized expansions, then the one in progress

	stack  []task
	result []uint64 // per statement: the criteria whose slices hold it
	full   uint64   // OR of every seed's criterion bit
	cc     labelblock.CursorCache

	stats slicing.Stats
	ctr   Counters
}

// run traverses from one chunk of at most 64 seed keys, key i carrying
// criterion bit i, and leaves the per-statement masks in s.result.
func (s *state) run(cfg *Config, seeds []Key) {
	s.begin(cfg)
	s.full = ^uint64(0) >> (64 - len(seeds))
	for i, k := range seeds {
		s.push(k, 1<<i)
	}
	for n := len(s.stack); n > 0; n = len(s.stack) {
		t := s.stack[n-1]
		n--
		// Coalesce directly adjacent tasks for the same point into one
		// mask.
		for n > 0 && s.stack[n-1].at == t.at {
			t.mask |= s.stack[n-1].mask
			n--
			s.ctr.Merges++
		}
		s.stack = s.stack[:n]
		s.process(cfg, t)
	}
	s.ctr.BlockHits += s.cc.Hits
}

// begin resets the state for a run: a new stamp, empty arenas and stack,
// cleared result masks and a reset cursor table.
func (s *state) begin(cfg *Config) {
	if s.stamp++; s.stamp == 0 {
		// The stamp wrapped: clear every stamp an execution could still
		// hold, so no earlier run's reads as this one's.
		clear(s.execs[:cap(s.execs)])
		s.stamp = 1
	}
	if n := int(max(cfg.Timestamps, 0)); n <= cap(s.execs) {
		s.execs = s.execs[:n]
	} else {
		s.execs = make([]exec, n)
	}
	s.masks, s.memo = s.masks[:0], s.memo[:0]
	s.spans = s.spans[:0]
	s.exp.Stmts, s.exp.Targets = s.exp.Stmts[:0], s.exp.Targets[:0]
	s.stack = s.stack[:0]
	if cap(s.result) < cfg.NumStmts {
		s.result = make([]uint64, cfg.NumStmts)
	} else {
		s.result = s.result[:cfg.NumStmts]
		clear(s.result)
	}
	s.cc.Reset(cfg.Lists)
}

// push claims mask's unseen bits for k's point and, when any are new,
// stacks a task carrying exactly those bits. The first touch of an
// execution in this run records its width and appends its points to the
// arenas.
func (s *state) push(k Key, mask uint64) {
	if uint64(k.TS) >= uint64(len(s.execs)) {
		s.ctr.Dropped++
		return
	}
	x := &s.execs[k.TS]
	if x.stamp != s.stamp {
		if k.Width <= 0 {
			s.ctr.Dropped++
			return
		}
		x.stamp, x.width, x.off = s.stamp, k.Width, int32(len(s.masks))
		s.masks = extend(s.masks, int(k.Width))
		if s.full&(s.full-1) != 0 {
			// Only a run of several criteria reads the memo.
			s.memo = extend(s.memo, int(k.Width))
		}
	}
	if uint32(k.Idx) >= uint32(x.width) {
		s.ctr.Dropped++
		return
	}
	at := x.off + k.Idx
	nv := mask &^ s.masks[at]
	if nv == 0 {
		return
	}
	s.masks[at] |= nv
	s.stack = append(s.stack, task{k: k, mask: nv, at: at})
}

// extend appends n zero values to a, allocating only when a lacks the
// capacity.
func extend[T any](a []T, n int) []T {
	a = slices.Grow(a, n)
	a = a[:len(a)+n]
	clear(a[len(a)-n:])
	return a
}

// process expands one task: resolve (or reuse) the point's expansion, OR
// the task's bits into the contributed statements' result masks, and
// propagate the bits downstream.
//
// A task holding every seed bit is the only task its point ever gets
// (each bit is claimed once per point), so its expansion is dropped from
// the arenas once propagated — every task of a one-criterion query. Any
// other task's point may be reached again with new bits, so its
// expansion stays in the arenas as the point's memo.
func (s *state) process(cfg *Config, t task) {
	keep := t.mask != s.full
	var sp span
	hit := false
	if keep {
		if m := s.memo[t.at]; m != 0 {
			sp, hit = s.spans[m-1], true
		}
	}
	if !hit {
		sp.s0, sp.t0 = int32(len(s.exp.Stmts)), int32(len(s.exp.Targets))
		cfg.Expand(t.k, &s.exp, &s.stats, &s.cc)
		sp.s1, sp.t1 = int32(len(s.exp.Stmts)), int32(len(s.exp.Targets))
		s.ctr.Expansions++
		if keep {
			s.spans = append(s.spans, sp)
			s.memo[t.at] = int32(len(s.spans))
		}
	}
	for _, id := range s.exp.Stmts[sp.s0:sp.s1] {
		s.result[id] |= t.mask
	}
	for _, k := range s.exp.Targets[sp.t0:sp.t1] {
		s.push(k, t.mask)
	}
	if !keep {
		s.exp.Stmts, s.exp.Targets = s.exp.Stmts[:sp.s0], s.exp.Targets[:sp.t0]
	}
}

// MaskSlices converts the dense per-statement criterion masks into one
// slicing.Slice per criterion bit.
func MaskSlices(masks []uint64, outs []*slicing.Slice) {
	for id, m := range masks {
		for ; m != 0; m &= m - 1 {
			outs[bits.TrailingZeros64(m)].Add(ir.StmtID(id))
		}
	}
}
