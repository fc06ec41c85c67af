package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"dynslice/internal/ir"
	"dynslice/internal/telemetry"
)

// Pipelined trace consumption: Async wraps one Sink so that events
// arriving from a producer (the interpreter, a decoder) are applied on a
// background goroutine, letting the producer run ahead by a bounded
// number of batches. It copies the per-event use/def address slices into
// a flat per-batch arena (the Sink contract only guarantees them during
// the call) and recycles batches through a sync.Pool, so steady-state
// operation allocates only when the pool is cold.

// PipelineConfig tunes Async's batching. The zero value selects the
// defaults, which are documented in docs/PERFORMANCE.md along with
// guidance for changing them.
type PipelineConfig struct {
	// BatchBlocks is the number of block records per batch (default 256).
	// Larger batches amortize channel hand-off; smaller ones reduce the
	// latency before the consumer sees the first events.
	BatchBlocks int
	// Depth is the channel depth in batches (default 4): how far the
	// producer may run ahead of the consumer.
	Depth int
	// Timeline, when non-nil, receives one Chrome trace event per applied
	// batch on the worker's own row, so pipeline utilization (worker busy
	// vs idle) renders in chrome://tracing / Perfetto.
	Timeline *telemetry.Timeline
}

const (
	defaultBatchBlocks = 256
	defaultDepth       = 4
)

// asyncRow names an Async worker's timeline row. Record's OPT builder is
// the one Async that production code runs with a timeline attached.
const asyncRow = "opt-build"

func (c PipelineConfig) batchBlocks() int {
	if c.BatchBlocks <= 0 {
		return defaultBatchBlocks
	}
	return c.BatchBlocks
}

func (c PipelineConfig) depth() int {
	if c.Depth <= 0 {
		return defaultDepth
	}
	return c.Depth
}

// timelineTid hands each Async worker its own timeline row, so
// concurrent workers never overlap events on one row.
var timelineTid atomic.Int32

// rec is one event inside a batch. Use and def addresses live in
// the batch arena at [off, off+nUses) and [off+nUses, off+nUses+nDefs).
type rec struct {
	kind     EventKind
	block    *ir.Block
	stmt     *ir.Stmt
	off      int32
	nUses    int32
	nDefs    int32
	regStart int64
	regLen   int64
}

// batch is a run of decoded events plus their flat address arena,
// recycled through batchPool once its consumer has applied it.
type batch struct {
	recs   []rec
	arena  []int64
	blocks int
}

var batchPool = sync.Pool{New: func() any { return new(batch) }}

func getBatch() *batch {
	b := batchPool.Get().(*batch)
	b.recs = b.recs[:0]
	b.arena = b.arena[:0]
	b.blocks = 0
	return b
}

// addBlock appends a block record.
func (b *batch) addBlock(blk *ir.Block) {
	b.recs = append(b.recs, rec{kind: EvBlock, block: blk})
	b.blocks++
}

// addStmt appends a statement record, copying addresses into the arena.
func (b *batch) addStmt(s *ir.Stmt, uses, defs []int64) {
	off := int32(len(b.arena))
	b.arena = append(b.arena, uses...)
	b.arena = append(b.arena, defs...)
	b.recs = append(b.recs, rec{
		kind: EvStmt, stmt: s,
		off: off, nUses: int32(len(uses)), nDefs: int32(len(defs)),
	})
}

// addRegion appends an array-declaration record.
func (b *batch) addRegion(s *ir.Stmt, start, length int64) {
	b.recs = append(b.recs, rec{kind: EvRegion, stmt: s, regStart: start, regLen: length})
}

// addEnd appends the end-of-trace marker.
func (b *batch) addEnd() {
	b.recs = append(b.recs, rec{kind: EvEnd})
}

// apply replays the batch into a sink, in order.
func (b *batch) apply(s Sink) {
	for i := range b.recs {
		r := &b.recs[i]
		switch r.kind {
		case EvBlock:
			s.Block(r.block)
		case EvStmt:
			u := b.arena[r.off : r.off+r.nUses]
			d := b.arena[r.off+r.nUses : r.off+r.nUses+r.nDefs]
			s.Stmt(r.stmt, u, d)
		case EvRegion:
			s.RegionDef(r.stmt, r.regStart, r.regLen)
		case EvEnd:
			s.End()
		}
	}
}

// Async wraps a Sink so events are applied on a background goroutine fed
// by bounded batches, overlapping event production (interpretation,
// decoding) with consumption (graph building). It implements Sink and is
// one-shot: End flushes, drains, and joins the worker, so when End
// returns the underlying sink is fully caught up. Producers that can
// fail before delivering End must call Close to reclaim the worker.
type Async struct {
	ch     chan *batch
	cur    *batch
	max    int
	wg     sync.WaitGroup
	closed bool
}

// NewAsync returns an Async applying events to sink on its own goroutine.
func NewAsync(sink Sink, cfg PipelineConfig) *Async {
	a := &Async{ch: make(chan *batch, cfg.depth()), max: cfg.batchBlocks(), cur: getBatch()}
	tl := cfg.Timeline
	var tid int
	if tl != nil {
		tid = int(timelineTid.Add(1))
	}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		for b := range a.ch {
			t0 := time.Now()
			b.apply(sink)
			tl.Event(asyncRow, "pipeline", tid, t0, time.Since(t0))
			batchPool.Put(b)
		}
	}()
	return a
}

func (a *Async) flush() {
	if len(a.cur.recs) == 0 {
		return
	}
	a.ch <- a.cur
	a.cur = getBatch()
}

// Block implements Sink.
func (a *Async) Block(b *ir.Block) {
	if a.cur.blocks >= a.max {
		a.flush()
	}
	a.cur.addBlock(b)
}

// Stmt implements Sink.
func (a *Async) Stmt(s *ir.Stmt, uses, defs []int64) { a.cur.addStmt(s, uses, defs) }

// RegionDef implements Sink.
func (a *Async) RegionDef(s *ir.Stmt, start, length int64) { a.cur.addRegion(s, start, length) }

// End implements Sink: it forwards End and blocks until the underlying
// sink has consumed every event.
func (a *Async) End() {
	if a.closed {
		return
	}
	a.cur.addEnd()
	a.flush()
	a.join()
}

// Close drains and joins the worker without delivering End (no-op after
// End). It makes Async safe on error paths where the producer stops
// mid-trace.
func (a *Async) Close() {
	if a.closed {
		return
	}
	a.flush()
	a.join()
}

func (a *Async) join() {
	a.closed = true
	close(a.ch)
	a.wg.Wait()
}
