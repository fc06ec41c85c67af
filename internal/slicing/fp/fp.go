// Package fp implements the baseline "full preprocessing" dynamic slicing
// algorithm (paper §2): the complete dynamic dependence graph is built in
// memory, with every exercised dependence instance recorded as an explicit
// timestamp pair. Timestamps are basic-block execution ordinals.
//
// Dynamic control dependences are tracked per call frame (the dynamic
// ancestor of a block execution is the most recent same-frame execution of
// one of its static control-dependence ancestors), and function entries
// are treated as control dependent on their call site, so slices follow
// both data and control across calls.
//
// Dependence storage is columnar: each use slot (and each block's control
// edges) owns one labelblock.List whose aux column carries the producing
// statement, instead of a []struct of 24-byte edges. Block ordinals only
// grow, so every list is append-sorted and seals into delta-varint blocks
// as it fills.
package fp

import (
	"unsafe"

	"dynslice/internal/ir"
	"dynslice/internal/slicing/batch"
	"dynslice/internal/slicing/labelblock"
	"dynslice/internal/telemetry"
)

type instRef struct {
	stmt ir.StmtID
	ts   int64
}

// DataEdge is one exercised data dependence instance of a use slot
// (decoded view; storage is columnar).
type DataEdge struct {
	Td, Tu int64
	Def    ir.StmtID
}

// CDEdge is one exercised control dependence instance of a block
// (decoded view; storage is columnar).
type CDEdge struct {
	Ta, Tb int64
	Anc    ir.StmtID // the controlling branch or call statement
}

// Graph is the full dynamic dependence graph and its builder state. It
// implements trace.Sink; feed it a trace (or run the interpreter with it
// as the sink), then call Slice.
type Graph struct {
	p *ir.Program

	// Builder state.
	ts     int64 // next block ordinal
	curTs  int64 // ordinal of the block being executed
	frames []*frameCtx

	// The last-definition table, dense by address: frames are never
	// reused, so the defined addresses fill [ir.GlobalBase, watermark).
	// defTs holds the defining block ordinal plus one (0: never defined)
	// and defStmt the defining statement, 12 bytes per address. Built
	// and snapshot-loaded graphs share this one form.
	defTs   []int64
	defStmt []int32

	// Graph proper: per use slot / per block, a compressed (Td, Tu) list
	// whose aux column is the producing statement ID.
	useEdges  [][]labelblock.List // [stmtID][slot] -> pairs ordered by Tu
	cdEdges   []labelblock.List   // [blockID] -> pairs ordered by Tb
	dataPairs int64
	cdPairs   int64

	// slotOff numbers the lists for the query cursors: use slot i of
	// statement s is list slotOff[s]+i, and block b's control list is
	// slotOff[len(p.Stmts)]+b.
	slotOff []int32

	mem *labelblock.Arena

	runs batch.FreeList // recycled query kernel states

	tel *telemetry.Registry // optional; flushed once at End
}

// frameCtx is one call frame's control-dependence state. lastExec holds
// the ordinal plus one (0: not yet executed) of the frame's most recent
// execution of each of its function's blocks, indexed by Block.Index.
type frameCtx struct {
	fn          *ir.Func
	lastExec    []int64
	callSite    instRef
	hasCallSite bool
}

// pushFrame enters fn one call deeper. Each depth keeps its frame and
// block table across calls, so a call allocates nothing once the depth
// has been reached before.
func (g *Graph) pushFrame(fn *ir.Func) *frameCtx {
	d := len(g.frames)
	if d == cap(g.frames) {
		g.frames = append(g.frames, nil)
	}
	g.frames = g.frames[:d+1]
	fr := g.frames[d]
	if fr == nil {
		fr = &frameCtx{}
		g.frames[d] = fr
	}
	n := len(fn.Blocks)
	if cap(fr.lastExec) < n {
		fr.lastExec = make([]int64, n)
	} else {
		fr.lastExec = fr.lastExec[:n]
		clear(fr.lastExec)
	}
	fr.fn, fr.hasCallSite = fn, false
	return fr
}

// NewGraph returns an empty graph/builder for p.
func NewGraph(p *ir.Program) *Graph {
	g := &Graph{
		p:        p,
		useEdges: make([][]labelblock.List, len(p.Stmts)),
		cdEdges:  make([]labelblock.List, len(p.Blocks)),
		slotOff:  useSlotOffsets(p),
		mem:      labelblock.NewArena(),
	}
	for i := range g.cdEdges {
		g.cdEdges[i] = labelblock.NewList(true)
	}
	return g
}

// useSlotOffsets derives Graph.slotOff from the program: each statement's
// first use-slot number, and past the last statement the slot total,
// where the block numbers start.
func useSlotOffsets(p *ir.Program) []int32 {
	off := make([]int32, len(p.Stmts)+1)
	for i, s := range p.Stmts {
		off[i+1] = off[i] + int32(len(s.Uses))
	}
	return off
}

// SetParallelEncode is a no-op: every label block is sealed inline as
// its list fills. It stays for callers that still ask for encode
// workers.
func (g *Graph) SetParallelEncode(int) {}

// Block implements trace.Sink.
func (g *Graph) Block(b *ir.Block) {
	g.curTs = g.ts
	g.ts++
	if len(g.frames) == 0 {
		g.pushFrame(b.Fn)
	}
	fr := g.frames[len(g.frames)-1]

	// Dynamic control dependence: most recent same-frame execution of a
	// static ancestor; function entries fall back to the call site. The
	// index checks only matter for a corrupt trace that runs a block
	// outside its function's frame.
	var best int64 // ordinal plus one; 0: no executed ancestor
	var bestAnc *ir.Block
	for _, anc := range b.CDAncestors {
		if anc.Index < len(fr.lastExec) && fr.lastExec[anc.Index] > best {
			best = fr.lastExec[anc.Index]
			bestAnc = anc
		}
	}
	if bestAnc != nil {
		term := bestAnc.Terminator()
		g.cdEdges[b.ID].Append(g.mem, labelblock.Pair{Td: best - 1, Tu: g.curTs}, int32(term.ID))
		g.cdPairs++
	} else if fr.hasCallSite && b == b.Fn.Entry() {
		// Interprocedural control dependence: the function entry depends on
		// its call site. Only the entry carries this edge; other blocks
		// without intraprocedural ancestors execute unconditionally within
		// the frame, and the call statement still enters slices through
		// parameter data dependences.
		g.cdEdges[b.ID].Append(g.mem, labelblock.Pair{Td: fr.callSite.ts, Tu: g.curTs}, int32(fr.callSite.stmt))
		g.cdPairs++
	}
	if b.Index < len(fr.lastExec) {
		fr.lastExec[b.Index] = g.curTs + 1
	}
}

// Stmt implements trace.Sink.
func (g *Graph) Stmt(s *ir.Stmt, uses, defs []int64) {
	if g.useEdges[s.ID] == nil && len(s.Uses) > 0 {
		slots := make([]labelblock.List, len(s.Uses))
		for i := range slots {
			slots[i] = labelblock.NewList(true)
		}
		g.useEdges[s.ID] = slots
	}
	for i, a := range uses {
		if d, ok := g.defOf(a); ok {
			g.useEdges[s.ID][i].Append(g.mem, labelblock.Pair{Td: d.ts, Tu: g.curTs}, int32(d.stmt))
			g.dataPairs++
		}
	}
	for _, a := range defs {
		g.define(a, a+1, s.ID)
	}
	switch s.Op {
	case ir.OpCall:
		fr := g.pushFrame(s.Callee)
		fr.callSite, fr.hasCallSite = instRef{stmt: s.ID, ts: g.curTs}, true
	case ir.OpReturn:
		if len(g.frames) > 0 {
			g.frames = g.frames[:len(g.frames)-1]
		}
	}
}

// RegionDef implements trace.Sink.
func (g *Graph) RegionDef(s *ir.Stmt, start, length int64) {
	g.define(start, start+length, s.ID)
}

// Reserve sizes the last-definition table for an address space of n
// words, the Result.Watermark of an earlier run on the same input, so
// that the build never regrows it. A wrong n costs only growth. Call it
// before the first event.
func (g *Graph) Reserve(n int64) {
	g.defTs = ir.ReserveTable(g.defTs, n)
	g.defStmt = ir.ReserveTable(g.defStmt, n)
}

// define records the current block's statement s as the last definition
// of the addresses [lo, hi), growing the table to cover them.
func (g *Graph) define(lo, hi int64, s ir.StmtID) {
	if hi > int64(len(g.defTs)) {
		g.defTs = ir.GrowTable(g.defTs, int(hi))
		g.defStmt = ir.GrowTable(g.defStmt, int(hi))
	}
	for a := lo; a < hi; a++ {
		g.defTs[a] = g.curTs + 1
		g.defStmt[a] = int32(s)
	}
}

// SetTelemetry attaches a registry; the builder keeps plain counters and
// flushes them when the trace ends. A graph that already holds its
// last-definition table (one loaded from a snapshot) publishes that
// table's size at once.
func (g *Graph) SetTelemetry(reg *telemetry.Registry) {
	g.tel = reg
	if len(g.defTs) > 0 {
		reg.Gauge("fp.graph.bytes.lastdef").Set(g.LastDefBytes())
	}
}

// End implements trace.Sink. Every list is compacted (short clean tails
// sealed) so the frozen graph sits at maximum compression and lookups
// never mutate it — required for concurrent SliceAll.
func (g *Graph) End() {
	g.defTs, g.defStmt = ir.TrimTable(g.defTs), ir.TrimTable(g.defStmt)
	g.frames = nil
	for _, slots := range g.useEdges {
		for i := range slots {
			slots[i].Compact(g.mem, false)
		}
	}
	for i := range g.cdEdges {
		g.cdEdges[i].Compact(g.mem, false)
	}
	if reg := g.tel; reg != nil {
		reg.Counter("fp.labels.data").Add(g.dataPairs)
		reg.Counter("fp.labels.cd").Add(g.cdPairs)
		reg.Counter("fp.block_execs").Add(g.ts)
		reg.Gauge("fp.graph.size_bytes").Set(g.SizeBytes())
		reg.Gauge("fp.graph.bytes.labels").Set(g.LabelBytes())
		reg.Gauge("fp.graph.bytes.edges").Set(g.EdgeBytes())
		reg.Gauge("fp.graph.bytes.resident").Set(g.ResidentBytes())
		reg.Gauge("fp.graph.bytes.lastdef").Set(g.LastDefBytes())
	}
}

// LastDefOf returns the statement instance that last defined addr.
func (g *Graph) LastDefOf(addr int64) (ir.StmtID, int64, bool) {
	d, ok := g.defOf(addr)
	return d.stmt, d.ts, ok
}

// defOf resolves the last definition of addr; any address outside the
// table, negative ones included, was never defined.
func (g *Graph) defOf(addr int64) (instRef, bool) {
	if uint64(addr) >= uint64(len(g.defTs)) || g.defTs[addr] == 0 {
		return instRef{}, false
	}
	return instRef{stmt: ir.StmtID(g.defStmt[addr]), ts: g.defTs[addr] - 1}, true
}

// LastDefBytes reports the resident bytes of the last-definition table.
// It is not part of ResidentBytes, which counts the dependence
// representation only.
func (g *Graph) LastDefBytes() int64 { return int64(cap(g.defTs))*8 + int64(cap(g.defStmt))*4 }

// DataPairs returns the number of data dependence labels.
func (g *Graph) DataPairs() int64 { return g.dataPairs }

// CDPairs returns the number of control dependence labels.
func (g *Graph) CDPairs() int64 { return g.cdPairs }

// LabelPairs returns the total number of explicit timestamp-pair labels.
func (g *Graph) LabelPairs() int64 { return g.dataPairs + g.cdPairs }

// SizeBytes estimates the in-memory size of the graph the way the paper
// reports graph sizes: 16 bytes per timestamp pair plus edge and node
// overheads. (This is the Table 2 accounting model; ResidentBytes reports
// what the compact representation actually occupies.)
func (g *Graph) SizeBytes() int64 {
	var sz int64
	sz += g.LabelPairs() * 24 // pair + source statement per instance
	sz += int64(len(g.p.Blocks)) * 32
	for _, slots := range g.useEdges {
		sz += int64(len(slots)) * 24
	}
	return sz
}

// LabelBytes reports the actual resident bytes of label storage: encoded
// block payloads, headers, and uncompressed tails across every list.
func (g *Graph) LabelBytes() int64 {
	var sz int64
	for _, slots := range g.useEdges {
		for i := range slots {
			sz += slots[i].MemBytes()
		}
	}
	for i := range g.cdEdges {
		sz += g.cdEdges[i].MemBytes()
	}
	return sz
}

// EdgeBytes reports the columnar slot-table overhead: one List header per
// use slot and per block, plus the per-statement spine.
func (g *Graph) EdgeBytes() int64 {
	listSz := int64(unsafe.Sizeof(labelblock.List{}))
	var sz int64
	sz += int64(len(g.useEdges)) * int64(unsafe.Sizeof([]labelblock.List{}))
	for _, slots := range g.useEdges {
		sz += int64(cap(slots)) * listSz
	}
	sz += int64(cap(g.cdEdges)) * listSz
	return sz
}

// ResidentBytes is the actual footprint of the frozen graph: labels plus
// the slot tables.
func (g *Graph) ResidentBytes() int64 { return g.LabelBytes() + g.EdgeBytes() }

// sortCheck verifies the edge ordering invariant on the decoded lists
// (used by tests).
func (g *Graph) sortCheck() bool {
	sorted := func(l *labelblock.List) bool {
		pairs := l.Pairs(nil)
		for i := 1; i < len(pairs); i++ {
			if pairs[i].Tu < pairs[i-1].Tu {
				return false
			}
		}
		return true
	}
	for _, slots := range g.useEdges {
		for i := range slots {
			if !sorted(&slots[i]) {
				return false
			}
		}
	}
	for i := range g.cdEdges {
		if !sorted(&g.cdEdges[i]) {
			return false
		}
	}
	return true
}

// DeltaStream serializes the graph's labeling information as the paper's
// SEQUITUR comparison requires: for every edge list, the sequence of
// tu - td deltas (highly repetitive for regular dependence patterns),
// with a separator symbol between lists. Grammar compression of this
// stream is the baseline the paper reports a 9.18x average factor for.
func (g *Graph) DeltaStream() []int64 {
	const sep = int64(1) << 40
	var out []int64
	var pairs []labelblock.Pair
	emit := func(l *labelblock.List) {
		if l.Len() == 0 {
			return
		}
		pairs = l.Pairs(pairs[:0])
		for _, e := range pairs {
			out = append(out, e.Tu-e.Td)
		}
		out = append(out, sep)
	}
	for _, slots := range g.useEdges {
		for i := range slots {
			emit(&slots[i])
		}
	}
	for i := range g.cdEdges {
		emit(&g.cdEdges[i])
	}
	return out
}
