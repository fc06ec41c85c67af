package trace

import (
	"bufio"
	"encoding/binary"
	"io"

	"dynslice/internal/ir"
)

// Binary format. The stream is self-framing given the program: a block
// record is the varint (blockID+1); the value 0 is the end marker. A block
// record is followed by exactly one record per statement of the block, in
// order. A statement record is the statement's use addresses (one uvarint
// per use slot) followed by its def addresses (one uvarint per def slot).
// An array declaration (OpDeclArr) instead carries two uvarints: region
// start and region length.

// Segment summarizes a contiguous run of block executions for demand-driven
// (LP) traversal: its half-open ordinal range, its file offset, the set of
// blocks executed, and a filter over the addresses defined.
type Segment struct {
	StartOrd int64 // ordinal of first block execution in the segment
	EndOrd   int64 // one past the last ordinal
	Off      int64 // byte offset of the segment start in the stream
	Blocks   blockSet
	Defs     addrFilter
	DefsAll  bool // set when a huge region def made the filter pointless
}

// HasBlock reports whether the segment executed block id.
func (g *Segment) HasBlock(id ir.BlockID) bool { return g.Blocks.Has(int(id)) }

// MayDefine reports whether the segment may define address a.
func (g *Segment) MayDefine(a int64) bool { return g.DefsAll || g.Defs.MayContain(a) }

// regionFilterCap bounds how many addresses of a region definition are
// added to a segment filter before giving up and marking DefsAll.
const regionFilterCap = 1 << 14

// Magic is the four-byte stream header ("DYTR"), followed by one format
// version byte. Segment offsets point past the header, so mid-file seeks
// (LP) never re-read it; whole-stream decoders validate it first.
var Magic = [4]byte{'D', 'Y', 'T', 'R'}

// Version is the current trace format version.
const Version byte = 1

// HeaderSize is the encoded size of the stream header.
const HeaderSize = len(Magic) + 1

// Writer encodes a trace to an io.Writer, building segment summaries as it
// goes. It implements Sink.
type Writer struct {
	bw        *bufio.Writer
	segBlocks int64 // block executions per segment
	ord       int64 // next block ordinal
	stmts     int64 // statement/region records written
	written   int64 // bytes written (post-buffer accounting)
	segs      []*Segment
	cur       *Segment
	numBlocks int
	met       *Metrics
	err       error
}

// NewWriter returns a trace writer. segBlocks controls segment granularity
// (block executions per segment); 4096 is a reasonable default. The stream
// header is written immediately.
func NewWriter(p *ir.Program, w io.Writer, segBlocks int) *Writer {
	if segBlocks <= 0 {
		segBlocks = 4096
	}
	tw := &Writer{
		bw:        bufio.NewWriterSize(w, 1<<16),
		segBlocks: int64(segBlocks),
		numBlocks: len(p.Blocks),
	}
	if _, err := tw.bw.Write(Magic[:]); err != nil {
		tw.err = err
	}
	if err := tw.bw.WriteByte(Version); err != nil && tw.err == nil {
		tw.err = err
	}
	tw.written += int64(HeaderSize)
	return tw
}

// SetMetrics attaches a telemetry bundle; aggregate write counters are
// flushed once at End, so metrics cost nothing on the per-record path.
func (w *Writer) SetMetrics(m *Metrics) { w.met = m }

// Err returns the first write error encountered, if any.
func (w *Writer) Err() error { return w.err }

// Segments returns the segment index. Valid after End.
func (w *Writer) Segments() []*Segment { return w.segs }

// BlockExecutions returns the number of block records written.
func (w *Writer) BlockExecutions() int64 { return w.ord }

// buffer returns the bufio.Writer's free space for a record of up to n
// varints, flushing first if they might not fit, so that a record is
// encoded in place and committed by one Write that only advances the
// buffer. ok is false once a write has failed: the first error latches
// and later records write nothing.
func (w *Writer) buffer(n int) (buf []byte, ok bool) {
	if w.err != nil {
		return nil, false
	}
	if w.bw.Available() < n*binary.MaxVarintLen64 {
		if w.err = w.bw.Flush(); w.err != nil {
			return nil, false
		}
	}
	return w.bw.AvailableBuffer(), true
}

// commit writes a record encoded into buffer's space.
func (w *Writer) commit(buf []byte) {
	if _, err := w.bw.Write(buf); err != nil {
		w.err = err
	}
	w.written += int64(len(buf))
}

// putUvarint writes a one-varint record.
func (w *Writer) putUvarint(v uint64) {
	if buf, ok := w.buffer(1); ok {
		w.commit(binary.AppendUvarint(buf, v))
	}
}

// Block implements Sink.
func (w *Writer) Block(b *ir.Block) {
	if w.cur == nil || w.ord-w.cur.StartOrd >= w.segBlocks {
		w.closeSegment()
		w.cur = &Segment{StartOrd: w.ord, Off: w.written, Blocks: newBlockSet(w.numBlocks)}
	}
	w.cur.Blocks.Add(int(b.ID))
	w.putUvarint(uint64(b.ID) + 1)
	w.ord++
}

func (w *Writer) closeSegment() {
	if w.cur != nil {
		w.cur.EndOrd = w.ord
		w.segs = append(w.segs, w.cur)
		w.cur = nil
	}
}

// Stmt implements Sink.
func (w *Writer) Stmt(s *ir.Stmt, uses, defs []int64) {
	w.stmts++
	if w.cur != nil {
		for _, a := range defs {
			w.cur.Defs.Add(a)
		}
	}
	buf, ok := w.buffer(len(uses) + len(defs))
	if !ok {
		return
	}
	for _, a := range uses {
		buf = binary.AppendUvarint(buf, uint64(a))
	}
	for _, a := range defs {
		buf = binary.AppendUvarint(buf, uint64(a))
	}
	w.commit(buf)
}

// RegionDef implements Sink.
func (w *Writer) RegionDef(s *ir.Stmt, start, length int64) {
	w.stmts++
	if buf, ok := w.buffer(2); ok {
		w.commit(binary.AppendUvarint(binary.AppendUvarint(buf, uint64(start)), uint64(length)))
	}
	if w.cur == nil {
		return
	}
	if length > regionFilterCap {
		w.cur.DefsAll = true
		return
	}
	for a := start; a < start+length; a++ {
		w.cur.Defs.Add(a)
	}
}

// End implements Sink.
func (w *Writer) End() {
	w.putUvarint(0)
	w.closeSegment()
	if err := w.bw.Flush(); err != nil && w.err == nil {
		w.err = err
	}
	if m := w.met; m != nil {
		m.BlocksWritten.Add(w.ord)
		m.StmtsWritten.Add(w.stmts)
		m.BytesWritten.Add(w.written)
		m.SegmentsWritten.Add(int64(len(w.segs)))
	}
}
