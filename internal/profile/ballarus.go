// Package profile implements Ball-Larus acyclic path profiling, the
// profile that drives the OPT representation's path specialization
// (paper §3.4: "We specialized all Ball Larus paths that were found to
// have a non-zero frequency during a profiling run").
//
// Paths are intraprocedural acyclic block sequences delimited by *cuts*:
// a path ends when execution takes a back edge, performs a call, returns,
// or the function changes. (Call and return cuts are an adaptation to this
// IR, where call statements terminate blocks and callee blocks interleave
// in the trace; excluding call edges keeps every path's block records
// contiguous in the trace.)
//
// The package provides both the classic Ball-Larus edge-increment
// numbering (NumPaths/Increments/Decode) and a trace-driven Collector that
// counts executed paths by their block sequence. The two views agree; the
// tests cross-check them.
package profile

import (
	"encoding/binary"
	"fmt"

	"dynslice/internal/dataflow"
	"dynslice/internal/ir"
)

// Numbering is the Ball-Larus path numbering of one function's acyclic
// path DAG.
type Numbering struct {
	Fn *ir.Func
	// NumPaths[b] is the number of distinct acyclic paths starting at b
	// (val(b) in Ball-Larus terms).
	NumPaths map[*ir.Block]int64
	// Inc[edge] is the path-id increment assigned to a DAG edge.
	Inc map[[2]*ir.Block]int64
	// DAGSuccs[b] lists b's successors along non-cut edges, in CFG order.
	DAGSuccs map[*ir.Block][]*ir.Block
	// Terminates[b] reports whether a path may end at b (back edge out,
	// call, return, or no DAG successors).
	Terminates map[*ir.Block]bool
	// Starts is the set of blocks at which paths may begin: the entry,
	// back-edge targets, and call continuations.
	Starts map[*ir.Block]bool
	back   map[[2]*ir.Block]bool
}

// Number computes the Ball-Larus numbering for f.
func Number(f *ir.Func) *Numbering {
	n := &Numbering{
		Fn:         f,
		NumPaths:   map[*ir.Block]int64{},
		Inc:        map[[2]*ir.Block]int64{},
		DAGSuccs:   map[*ir.Block][]*ir.Block{},
		Terminates: map[*ir.Block]bool{},
		Starts:     map[*ir.Block]bool{},
		back:       dataflow.BackEdges(f),
	}
	n.Starts[f.Entry()] = true
	for _, b := range f.Blocks {
		isCall := false
		if t := b.Terminator(); t != nil && t.Op == ir.OpCall {
			isCall = true
		}
		terminates := isCall
		if t := b.Terminator(); t != nil && t.Op == ir.OpReturn {
			terminates = true
		}
		for _, s := range b.Succs {
			switch {
			case n.back[[2]*ir.Block{b, s}]:
				terminates = true
				n.Starts[s] = true
			case isCall:
				n.Starts[s] = true // continuation block
			case s == f.Exit:
				terminates = true
			default:
				n.DAGSuccs[b] = append(n.DAGSuccs[b], s)
			}
		}
		if len(n.DAGSuccs[b]) == 0 {
			terminates = true
		}
		n.Terminates[b] = terminates
	}

	// val(b) = numTerm(b) + sum over DAG successors, computed by memoized
	// recursion (the cut-free subgraph is acyclic).
	var val func(b *ir.Block) int64
	val = func(b *ir.Block) int64 {
		if v, ok := n.NumPaths[b]; ok {
			return v
		}
		n.NumPaths[b] = 0 // placeholder; DAG has no cycles so never read
		var v int64
		if n.Terminates[b] {
			v = 1
		}
		for _, s := range n.DAGSuccs[b] {
			v += val(s)
		}
		n.NumPaths[b] = v
		return v
	}
	for _, b := range f.Blocks {
		val(b)
	}

	// Edge increments: inc(b -> s_i) = numTerm(b) + sum_{j<i} val(s_j).
	for _, b := range f.Blocks {
		var acc int64
		if n.Terminates[b] {
			acc = 1
		}
		for _, s := range n.DAGSuccs[b] {
			n.Inc[[2]*ir.Block{b, s}] = acc
			acc += n.NumPaths[s]
		}
	}
	return n
}

// PathID computes the Ball-Larus id of a path given as a block sequence
// (which must follow DAG edges from a start block).
func (n *Numbering) PathID(seq []*ir.Block) (int64, error) {
	if len(seq) == 0 {
		return 0, fmt.Errorf("profile: empty path")
	}
	if !n.Starts[seq[0]] {
		return 0, fmt.Errorf("profile: %v is not a path start", seq[0])
	}
	var id int64
	for i := 0; i+1 < len(seq); i++ {
		inc, ok := n.Inc[[2]*ir.Block{seq[i], seq[i+1]}]
		if !ok {
			return 0, fmt.Errorf("profile: %v -> %v is not a DAG edge", seq[i], seq[i+1])
		}
		id += inc
	}
	return id, nil
}

// Decode reconstructs the block sequence of the path with the given id
// starting at start. It is the inverse of PathID.
func (n *Numbering) Decode(start *ir.Block, id int64) ([]*ir.Block, error) {
	if !n.Starts[start] {
		return nil, fmt.Errorf("profile: %v is not a path start", start)
	}
	if id < 0 || id >= n.NumPaths[start] {
		return nil, fmt.Errorf("profile: path id %d out of range [0,%d) at %v", id, n.NumPaths[start], start)
	}
	seq := []*ir.Block{start}
	b := start
	for {
		if n.Terminates[b] {
			if id == 0 {
				return seq, nil
			}
			id--
		}
		found := false
		for _, s := range n.DAGSuccs[b] {
			if id < n.NumPaths[s] {
				seq = append(seq, s)
				b = s
				found = true
				break
			}
			id -= n.NumPaths[s]
		}
		if !found {
			return nil, fmt.Errorf("profile: corrupt decode state at %v (id %d)", b, id)
		}
	}
}

// SeqKey returns a compact hashable key for a block sequence.
func SeqKey(seq []*ir.Block) string {
	return string(appendSeqKey(make([]byte, 0, len(seq)*3), seq))
}

// appendSeqKey appends the key of seq to buf.
func appendSeqKey(buf []byte, seq []*ir.Block) []byte {
	for _, b := range seq {
		buf = binary.AppendUvarint(buf, uint64(b.ID))
	}
	return buf
}
