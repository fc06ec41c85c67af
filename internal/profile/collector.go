package profile

import (
	"fmt"
	"sort"

	"dynslice/internal/dataflow"
	"dynslice/internal/ir"
)

// Cuts answers whether consecutive block executions belong to different
// Ball-Larus paths. The OPT graph builder and the profile collector share
// this definition, so paths observed while profiling are exactly the
// sequences the builder will see between cuts.
//
// The predicate is asked once per block execution, so it reads one byte
// of dense per-block bits, indexed by BlockID, instead of hashing the
// edge: whether every path ends after the block or starts at it, and
// which of its successor edges are back edges.
type Cuts struct {
	bits []uint8
}

// Cut bits of a block.
const (
	cutAfter  uint8 = 1 << iota // ends in a call or return, or is a continuation
	cutBefore                   // a call block or a continuation
	backSucc                    // backSucc<<i: the edge to Succs[i] is a back edge
)

// maxSuccs is the most successors the back-edge bits can hold; a block
// has at most two (a branch).
const maxSuccs = 6

// NewCuts precomputes the cut bits of every block of p.
func NewCuts(p *ir.Program) *Cuts {
	c := &Cuts{bits: make([]uint8, len(p.Blocks))}
	for _, f := range p.Funcs {
		back := dataflow.BackEdges(f)
		for _, b := range f.Blocks {
			var bits uint8
			if t := b.Terminator(); t != nil && (t.Op == ir.OpCall || t.Op == ir.OpReturn) || b.IsContinuation() {
				bits |= cutAfter
			}
			if b.IsCallBlock() || b.IsContinuation() {
				bits |= cutBefore
			}
			if len(b.Succs) > maxSuccs {
				panic(fmt.Sprintf("profile: block %v has %d successors", b, len(b.Succs)))
			}
			for i, s := range b.Succs {
				if back[[2]*ir.Block{b, s}] {
					bits |= backSucc << i
				}
			}
			c.bits[b.ID] = bits
		}
	}
	return c
}

// Between reports whether a path cut occurs between the executions of prev
// and next: function change (call or return), an explicit call or return
// terminator, a taken back edge, or a logical-block boundary (call blocks
// and their continuations form superblock nodes of their own and never
// join specialized paths).
func (c *Cuts) Between(prev, next *ir.Block) bool {
	if prev.Fn != next.Fn {
		return true
	}
	bp := c.bits[prev.ID]
	if bp&cutAfter != 0 || c.bits[next.ID]&cutBefore != 0 {
		return true
	}
	for i, s := range prev.Succs {
		if s == next {
			return bp&(backSucc<<i) != 0
		}
	}
	return false
}

// PathProfile is one executed Ball-Larus path and its frequency.
type PathProfile struct {
	Fn    *ir.Func
	Seq   []*ir.Block
	Count int64
	ID    int64 // Ball-Larus path id (cross-check of the sequence key)
	Key   string
}

// Collector is a trace sink that counts executed Ball-Larus paths.
type Collector struct {
	p      *ir.Program
	cuts   *Cuts
	nums   map[*ir.Func]*Numbering
	cur    []*ir.Block
	key    []byte // the key of cur, reused from path to path
	counts map[string]*PathProfile
}

// NewCollector returns a collector for p.
func NewCollector(p *ir.Program) *Collector {
	c := &Collector{
		p:      p,
		cuts:   NewCuts(p),
		nums:   map[*ir.Func]*Numbering{},
		counts: map[string]*PathProfile{},
	}
	for _, f := range p.Funcs {
		c.nums[f] = Number(f)
	}
	return c
}

// Cuts exposes the shared cut predicate.
func (c *Collector) Cuts() *Cuts { return c.cuts }

// Numbering returns the Ball-Larus numbering of f.
func (c *Collector) Numbering(f *ir.Func) *Numbering { return c.nums[f] }

// Block implements trace.Sink.
func (c *Collector) Block(b *ir.Block) {
	if len(c.cur) > 0 && c.cuts.Between(c.cur[len(c.cur)-1], b) {
		c.flush()
	}
	c.cur = append(c.cur, b)
}

// Stmt implements trace.Sink.
func (c *Collector) Stmt(*ir.Stmt, []int64, []int64) {}

// RegionDef implements trace.Sink.
func (c *Collector) RegionDef(*ir.Stmt, int64, int64) {}

// End implements trace.Sink.
func (c *Collector) End() { c.flush() }

func (c *Collector) flush() {
	if len(c.cur) == 0 {
		return
	}
	// The lookup converts the reused key without copying it; only a new
	// path allocates its key string.
	c.key = appendSeqKey(c.key[:0], c.cur)
	pp := c.counts[string(c.key)]
	if pp == nil {
		key := string(c.key)
		seq := make([]*ir.Block, len(c.cur))
		copy(seq, c.cur)
		id, err := c.nums[seq[0].Fn].PathID(seq)
		if err != nil {
			id = -1 // not a pure DAG path (should not happen with shared cuts)
		}
		pp = &PathProfile{Fn: seq[0].Fn, Seq: seq, ID: id, Key: key}
		c.counts[key] = pp
	}
	pp.Count++
	c.cur = c.cur[:0]
}

// Paths returns all executed paths, most frequent first (ties broken by
// key for determinism).
func (c *Collector) Paths() []*PathProfile {
	out := make([]*PathProfile, 0, len(c.counts))
	for _, pp := range c.counts {
		out = append(out, pp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// HotPaths returns the executed paths with frequency >= minFreq and length
// >= 2 blocks (specializing single-block paths buys nothing), capped at
// maxPerFunc per function (0 = unlimited).
func (c *Collector) HotPaths(minFreq int64, maxPerFunc int) []*PathProfile {
	perFn := map[*ir.Func]int{}
	var out []*PathProfile
	for _, pp := range c.Paths() {
		if pp.Count < minFreq || len(pp.Seq) < 2 {
			continue
		}
		if maxPerFunc > 0 && perFn[pp.Fn] >= maxPerFunc {
			continue
		}
		perFn[pp.Fn]++
		out = append(out, pp)
	}
	return out
}
