package lp

import (
	"fmt"
	"os"

	"dynslice/internal/ir"
	"dynslice/internal/trace"
)

// BlockExec is one materialized block execution: the block, its
// execution ordinal, and the flat per-statement use+def address array
// laid out per blockLayout (uses then defs for each statement, in
// statement order; DeclArr contributes its region start and length).
type BlockExec struct {
	B     *ir.Block
	Ord   int64
	Addrs []int64
}

// Source supplies trace segments' block executions to the backward
// traversal. The default source decodes the on-disk trace file; the
// reexec backend supplies one that regenerates segments by re-executing
// the interpreter from checkpoints.
type Source interface {
	// Open starts one query's backward scan. Each query opens its own
	// cursor, so concurrent queries never share mutable state: the
	// arrays a cursor reuses from one Segment call to the next belong
	// to its one scan.
	Open() (Cursor, error)
}

// Cursor serves one backward scan's segment requests. The traversal
// requests segments in strictly descending order and each at most once.
// A returned slice is valid until the next Segment call, so a cursor may
// reuse its array; ownership of each entry's Addrs buffer passes to the
// caller (which recycles the buffers into alloc).
type Cursor interface {
	// Segment materializes seg's block executions in execution order.
	// alloc returns an empty address buffer with at least the given
	// capacity; using it lets the traversal recycle buffers across
	// segments.
	Segment(seg *trace.Segment, alloc func(int) []int64) ([]BlockExec, error)
	Close() error
}

// BufSize returns the address-buffer capacity a BlockExec for b needs —
// the flat layout's total slot count. External Sources size the buffers
// they request through alloc with it so the traversal's indexing (which
// uses the same layout) lines up exactly.
func (s *Slicer) BufSize(b *ir.Block) int { return s.layouts[b.ID].total }

// fileSource is the default Source: seek + decode of the trace file
// written during the recording.
type fileSource struct {
	s *Slicer
}

func (fs *fileSource) Open() (Cursor, error) {
	f, err := os.Open(fs.s.path)
	if err != nil {
		return nil, fmt.Errorf("lp: %w", err)
	}
	return &fileCursor{s: fs.s, f: f}, nil
}

type fileCursor struct {
	s     *Slicer
	f     *os.File
	execs []BlockExec // the last segment's array, reused when big enough
}

func (c *fileCursor) Close() error { return c.f.Close() }

func (c *fileCursor) Segment(seg *trace.Segment, alloc func(int) []int64) ([]BlockExec, error) {
	if _, err := c.f.Seek(seg.Off, 0); err != nil {
		return nil, fmt.Errorf("lp: seek: %w", err)
	}
	d := trace.NewDecoder(c.s.p, c.f, seg.StartOrd)
	d.SetMetrics(c.s.met)
	n := seg.EndOrd - seg.StartOrd
	if int64(cap(c.execs)) < n {
		c.execs = make([]BlockExec, 0, n)
	}
	execs := c.execs[:0] // the appends below stay within cap n
	var cur *BlockExec
	for int64(len(execs)) < n {
		ev, err := d.Next()
		if err != nil {
			return nil, err
		}
		switch ev.Kind {
		case trace.EvBlock:
			execs = append(execs, BlockExec{B: ev.Block, Ord: ev.Ord})
			cur = &execs[len(execs)-1]
			cur.Addrs = alloc(c.s.layouts[ev.Block.ID].total)
		case trace.EvStmt:
			cur.Addrs = append(cur.Addrs, ev.Uses...)
			cur.Addrs = append(cur.Addrs, ev.Defs...)
		case trace.EvRegion:
			cur.Addrs = append(cur.Addrs, ev.RegStart, ev.RegLen)
		case trace.EvEnd:
			return execs, nil
		}
	}
	// The loop exits after appending the segment's last block record; its
	// statement records still follow. Decode until the next block record
	// or end.
	for total := c.s.layouts[cur.B.ID].total; len(cur.Addrs) < total; {
		ev, err := d.Next()
		if err != nil {
			return nil, err
		}
		switch ev.Kind {
		case trace.EvStmt:
			cur.Addrs = append(cur.Addrs, ev.Uses...)
			cur.Addrs = append(cur.Addrs, ev.Defs...)
		case trace.EvRegion:
			cur.Addrs = append(cur.Addrs, ev.RegStart, ev.RegLen)
		case trace.EvEnd:
			return execs, nil
		case trace.EvBlock:
			if m := c.s.met; m != nil {
				m.ErrDesync.Inc()
			}
			return nil, fmt.Errorf("lp: segment decoding desynchronized")
		}
	}
	return execs, nil
}
