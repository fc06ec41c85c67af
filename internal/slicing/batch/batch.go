// Package batch is the one traversal kernel of the FP and OPT slicers:
// single, observed and batched queries (slicing.Slicer, slicing.Explainer,
// slicing.MultiSlicer) all run here, a single query being the
// one-criterion batch. Every traversal point carries a 64-bit criterion
// mask in a sharded flat visited table, and the frontier runs on a
// bounded work-stealing worker pool:
//
//   - Visited table: open-addressing shards (RWMutex-guarded buckets over
//     slab-allocated entries that never move), one entry per traversal
//     point. The 64-bit criterion mask on each entry is CAS-merged, so
//     the hot path of a revisit is array indexing plus one atomic
//     or-merge — no map hashing, no allocation.
//   - Expansion memo: an entry that may be reached again with new
//     criterion bits publishes its dependence expansion (the statements
//     contributed and the downstream points reached) exactly once via an
//     atomic pointer; racing workers compute independently but only the
//     publishing winner's traversal stats are counted, so aggregate stats
//     stay per-unique-point regardless of schedule.
//   - Work stealing: each worker owns a deque, pushes and pops at its
//     tail (LIFO keeps the traversal depth-first and cache-warm), and
//     steals half a victim's queue from the head when empty. Termination
//     is a global count of enqueued-but-unfinished tasks.
//   - Label cursors: each worker searches label lists through its own
//     cursor table (labelblock.CursorCache), indexed by the caller's list
//     numbers and recycled across runs, so every lookup starts where the
//     worker's previous lookup in that list ended.
//   - One worker: a run with one seed (every single query) or a pool of
//     one owns all of the above outright, so it takes no locks and no
//     atomics, resolves into a reused expansion buffer, and recycles its
//     one-shard table across runs.
//   - Results: workers accumulate per-statement criterion masks in dense
//     per-worker arrays, OR-merged after the pool drains — the output is
//     a deterministic function of the reachable set, independent of the
//     schedule or worker count.
package batch

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"dynslice/internal/ir"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/labelblock"
)

// Key identifies one traversal point. The packing is the caller's: FP uses
// (statement, timestamp), OPT packs (node, statement copy, timestamp, use
// slot). Equal keys must denote the same expansion.
type Key struct {
	K1, K2 uint64
}

// Expansion is the resolution of one traversal point: the statements it
// contributes to every criterion that reaches it, and the downstream
// points it leads to. Memoized expansions are published once per key and
// then read-only.
type Expansion struct {
	Stmts   []ir.StmtID
	Targets []Key
}

// clone copies e out of a worker's reused buffer.
func (e *Expansion) clone() *Expansion {
	return &Expansion{Stmts: slices.Clone(e.Stmts), Targets: slices.Clone(e.Targets)}
}

// Counters reports scheduler-level work for telemetry.
type Counters struct {
	Steals      int64 // steal operations that moved at least one task
	Merges      int64 // tasks coalesced by key before expansion (mask OR-merge)
	Expansions  int64 // unique traversal points expanded
	BlockHits   int64 // label lookups answered inside a block a cursor had decoded
	WorkersUsed int   // workers the run actually started
}

// Config configures one batched traversal.
type Config struct {
	// Workers bounds the pool; <= 0 means runtime.GOMAXPROCS(0). A batch
	// never uses more workers than it has seed tasks, so a one-criterion
	// query always runs on one worker.
	Workers int
	// NumStmts sizes the dense per-statement result-mask arrays
	// (statement IDs index them).
	NumStmts int
	// Lists sizes the per-worker cursor tables: Expand searches label
	// lists numbered [0, Lists).
	Lists int
	// Expand resolves one traversal point by appending to exp, a
	// per-worker buffer the kernel empties before each call and copies
	// only when it memoizes the result. stats must count only this key's
	// resolution work; the run keeps one call's stats per unique key
	// (racing losers' are discarded). cc is the worker's cursor table.
	Expand func(k Key, exp *Expansion, stats *slicing.Stats, cc *labelblock.CursorCache)
}

// Task is a seed for Run: a traversal point and the criterion bits that
// start there.
type Task struct {
	K    Key
	Mask uint64
	e    *entry
}

// Run executes one batched traversal from seeds and returns the dense
// per-statement criterion masks, the aggregate traversal stats, and the
// scheduler counters. The masks and stats are deterministic for a given
// graph and seed set; Counters are schedule-dependent (except Expansions).
func Run(cfg Config, seeds []Task) ([]uint64, slicing.Stats, Counters) {
	nw := cfg.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	nw = max(1, min(nw, len(seeds)))
	r := &runner{cfg: cfg, shared: nw > 1}
	if r.shared {
		r.table = newTable(nw)
	} else {
		r.table = localTables.Get().(*table)
		defer r.table.release()
	}
	r.workers = make([]*worker, nw)
	for i := range r.workers {
		r.workers[i] = &worker{masks: make([]uint64, cfg.NumStmts), cc: labelblock.GetCursorCache(cfg.Lists)}
	}
	// Seeds are dealt round-robin so the pool starts balanced; stealing
	// rebalances from there.
	for i, s := range seeds {
		r.full |= s.Mask
		r.push(r.workers[i%nw], s.K, s.Mask)
	}
	if !r.shared {
		r.loop(0)
	} else {
		var wg sync.WaitGroup
		for i := 0; i < nw; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r.loop(i)
			}(i)
		}
		wg.Wait()
	}
	for _, w := range r.workers {
		w.ctr.BlockHits = w.cc.Hits
		w.cc.Release()
	}
	masks := r.workers[0].masks
	stats := r.workers[0].stats
	ctr := r.workers[0].ctr
	for _, w := range r.workers[1:] {
		for i, m := range w.masks {
			masks[i] |= m
		}
		stats.Instances += w.stats.Instances
		stats.LabelProbes += w.stats.LabelProbes
		ctr.Steals += w.ctr.Steals
		ctr.Merges += w.ctr.Merges
		ctr.Expansions += w.ctr.Expansions
		ctr.BlockHits += w.ctr.BlockHits
	}
	ctr.WorkersUsed = nw
	return masks, stats, ctr
}

// Slices answers one criterion per seed key: one Run per 64-key chunk,
// key i owning bit i%64 of its chunk. It returns the slices, the stats
// and counters summed over the chunks.
func Slices(cfg Config, keys []Key) ([]*slicing.Slice, *slicing.Stats, Counters) {
	outs := make([]*slicing.Slice, len(keys))
	for i := range outs {
		outs[i] = slicing.NewSlice()
	}
	stats := &slicing.Stats{}
	var ctr Counters
	for base := 0; base < len(keys); base += 64 {
		tasks := make([]Task, min(64, len(keys)-base))
		for j := range tasks {
			tasks[j] = Task{K: keys[base+j], Mask: uint64(1) << j}
		}
		masks, st, c := Run(cfg, tasks)
		MaskSlices(masks, outs[base:base+len(tasks)])
		stats.Instances += st.Instances
		stats.LabelProbes += st.LabelProbes
		ctr.Steals += c.Steals
		ctr.Merges += c.Merges
		ctr.Expansions += c.Expansions
		ctr.BlockHits += c.BlockHits
		ctr.WorkersUsed = max(ctr.WorkersUsed, c.WorkersUsed)
	}
	return outs, stats, ctr
}

type worker struct {
	mu    sync.Mutex
	dq    []Task
	buf   Expansion     // reused expansion buffer
	delta slicing.Stats // one expansion's stats, before the memo decides
	masks []uint64
	stats slicing.Stats
	ctr   Counters
	cc    *labelblock.CursorCache
}

// runner is one Run's state. A one-worker run (shared == false) owns all
// of it: no deque or shard locks, no CAS, no pending count.
type runner struct {
	cfg     Config
	table   *table
	workers []*worker
	shared  bool
	full    uint64 // OR of every seed mask
	pending atomic.Int64
}

// push claims mask's unseen bits for k in the visited table and, when any
// are new, enqueues a task carrying exactly those bits.
func (r *runner) push(w *worker, k Key, mask uint64) {
	nv, e := r.table.visit(k, mask, r.shared)
	if nv == 0 {
		return
	}
	if !r.shared {
		w.dq = append(w.dq, Task{K: k, Mask: nv, e: e})
		return
	}
	r.pending.Add(1)
	w.mu.Lock()
	w.dq = append(w.dq, Task{K: k, Mask: nv, e: e})
	w.mu.Unlock()
}

// pop takes from the worker's own tail, coalescing any directly adjacent
// tasks for the same key into one mask (the deque-level half of mask
// merging; the table-level half happens at push). Coalesced tasks retire
// immediately from the pending count.
func (r *runner) pop(w *worker) (Task, bool) {
	if r.shared {
		w.mu.Lock()
		defer w.mu.Unlock()
	}
	n := len(w.dq)
	if n == 0 {
		return Task{}, false
	}
	t := w.dq[n-1]
	w.dq = w.dq[:n-1]
	for len(w.dq) > 0 && w.dq[len(w.dq)-1].K == t.K {
		t.Mask |= w.dq[len(w.dq)-1].Mask
		w.dq = w.dq[:len(w.dq)-1]
		w.ctr.Merges++
		if r.shared {
			r.pending.Add(-1)
		}
	}
	return t, true
}

// steal moves half of a victim's queue (from the head: the oldest, widest
// frontier entries) to the thief.
func (r *runner) steal(self int) (Task, bool) {
	me := r.workers[self]
	n := len(r.workers)
	for off := 1; off < n; off++ {
		v := r.workers[(self+off)%n]
		v.mu.Lock()
		if len(v.dq) == 0 {
			v.mu.Unlock()
			continue
		}
		take := (len(v.dq) + 1) / 2
		grabbed := make([]Task, take)
		copy(grabbed, v.dq[:take])
		v.dq = append(v.dq[:0], v.dq[take:]...)
		v.mu.Unlock()
		me.mu.Lock()
		me.dq = append(me.dq, grabbed[:take-1]...)
		me.mu.Unlock()
		me.ctr.Steals++
		return grabbed[take-1], true
	}
	return Task{}, false
}

func (r *runner) loop(self int) {
	w := r.workers[self]
	for {
		t, ok := r.pop(w)
		if !ok && r.shared {
			t, ok = r.steal(self)
		}
		if !ok {
			if !r.shared || r.pending.Load() == 0 {
				return
			}
			runtime.Gosched()
			continue
		}
		r.process(w, t)
	}
}

// process expands one task: resolve (or reuse) the key's expansion, OR the
// task's bits into the contributed statements' result masks, and propagate
// the bits downstream.
//
// A task holding every seed bit is the only task its key ever gets (each
// bit is claimed once per key), so its expansion is resolved into the
// worker's buffer and never memoized — every task of a one-criterion
// query. Any other task's key may be reached again with new bits: its
// expansion is published once, and only the publishing winner's stats
// count, so aggregate stats stay per-unique-key no matter how many
// workers raced on it.
func (r *runner) process(w *worker, t Task) {
	var exp *Expansion
	if t.Mask != r.full {
		exp = t.e.memo(r.shared)
	}
	if exp == nil {
		exp = &w.buf
		exp.Stmts, exp.Targets = exp.Stmts[:0], exp.Targets[:0]
		w.delta = slicing.Stats{}
		r.cfg.Expand(t.K, exp, &w.delta, w.cc)
		if t.Mask == r.full || t.e.publish(exp.clone(), r.shared) {
			w.stats.Instances += w.delta.Instances
			w.stats.LabelProbes += w.delta.LabelProbes
			w.ctr.Expansions++
		}
	}
	for _, id := range exp.Stmts {
		w.masks[id] |= t.Mask
	}
	for _, tk := range exp.Targets {
		r.push(w, tk, t.Mask)
	}
	if r.shared {
		r.pending.Add(-1)
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
