package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"dynslice/internal/ir"
)

// EventKind tags decoded events.
type EventKind int

// Decoded event kinds.
const (
	EvBlock EventKind = iota
	EvStmt
	EvRegion
	EvEnd
)

// Event is one decoded trace event. The Uses and Defs slices are reused
// between Next calls; callers must copy them to retain them.
type Event struct {
	Kind     EventKind
	Ord      int64 // block ordinal (valid for EvBlock)
	Block    *ir.Block
	Stmt     *ir.Stmt
	Uses     []int64
	Defs     []int64
	RegStart int64
	RegLen   int64
}

// Decoder decodes a binary trace stream for one program.
type Decoder struct {
	p       *ir.Program
	br      *bufio.Reader
	ord     int64 // ordinal to assign to the next block record
	blk     *ir.Block
	stmtIdx int
	uses    []int64
	defs    []int64
	met     *Metrics
	done    bool
	// wm is the address watermark under ir's frame rule, tracked from
	// the header on: every use, def and region address must lie in
	// [ir.GlobalBase, wm). Zero for mid-file decoders, which start
	// without the frame history and leave addresses and control flow
	// unchecked.
	wm int64
	// Control flow, tracked alongside wm: the previous block record and
	// the continuations of the calls not yet returned from.
	prev  *ir.Block
	conts []*ir.Block
}

// NewDecoder returns a decoder reading from r. startOrd is the ordinal of
// the first block record in the stream (0 for a whole trace; a segment's
// StartOrd when resuming mid-file). Decoders positioned at the start of a
// stream must call ReadHeader before Next; mid-file decoders (segment
// offsets point past the header) must not.
func NewDecoder(p *ir.Program, r io.Reader, startOrd int64) *Decoder {
	return &Decoder{p: p, br: bufio.NewReaderSize(r, 1<<16), ord: startOrd}
}

// SetMetrics attaches a telemetry bundle. Read counters are incremental
// (nil-safe, inert by default); error counters fire once per failed call.
func (d *Decoder) SetMetrics(m *Metrics) { d.met = m }

// ReadHeader consumes and validates the stream header (magic + version).
func (d *Decoder) ReadHeader() error {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(d.br, hdr[:]); err != nil {
		d.countErr(err)
		return fmt.Errorf("trace: header: %w", err)
	}
	if [4]byte(hdr[:4]) != Magic {
		if d.met != nil {
			d.met.ErrBadMagic.Inc()
		}
		return fmt.Errorf("trace: bad magic %q", hdr[:4])
	}
	if hdr[4] != Version {
		if d.met != nil {
			d.met.ErrBadMagic.Inc()
		}
		return fmt.Errorf("trace: unsupported format version %d (want %d)", hdr[4], Version)
	}
	_, d.wm = d.p.MainFrame()
	return nil
}

// inSpace reports whether the n addresses from lo lie in the frame
// rule's address space, so a corrupt stream cannot steer a consumer's
// address-indexed tables. Mid-file decoders check nothing.
func (d *Decoder) inSpace(lo, n uint64) bool {
	return d.wm == 0 || (lo >= uint64(ir.GlobalBase) && lo <= uint64(d.wm) && n <= uint64(d.wm)-lo)
}

func (d *Decoder) badAddr(what string, a uint64) error {
	if d.met != nil {
		d.met.ErrBadRecord.Inc()
	}
	return fmt.Errorf("trace: %s address %d outside [%d, %d)", what, a, ir.GlobalBase, d.wm)
}

// countErr classifies a decode error into the metrics bundle. EOF-family
// errors mean the stream ended mid-record (truncation); anything else is
// a malformed record payload (e.g. a varint overflowing 64 bits).
func (d *Decoder) countErr(err error) {
	if d.met == nil {
		return
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		d.met.ErrTruncated.Inc()
	} else {
		d.met.ErrBadRecord.Inc()
	}
}

func (d *Decoder) uvarint() (uint64, error) {
	return binary.ReadUvarint(d.br)
}

// Next decodes the next event. After EvEnd (or when a segment-bounded
// caller stops early), Next must not be called again.
func (d *Decoder) Next() (Event, error) {
	if d.done {
		return Event{Kind: EvEnd}, nil
	}
	// Inside a block: statement records until exhausted.
	if d.blk != nil && d.stmtIdx < len(d.blk.Stmts) {
		s := d.blk.Stmts[d.stmtIdx]
		d.stmtIdx++
		if s.Op == ir.OpDeclArr {
			start, err := d.uvarint()
			if err != nil {
				d.countErr(err)
				return Event{}, fmt.Errorf("trace: region record: %w", err)
			}
			length, err := d.uvarint()
			if err != nil {
				d.countErr(err)
				return Event{}, fmt.Errorf("trace: region record: %w", err)
			}
			if !d.inSpace(start, length) {
				return Event{}, d.badAddr("region", start)
			}
			if d.met != nil {
				d.met.StmtsRead.Inc()
			}
			return Event{Kind: EvRegion, Stmt: s, RegStart: int64(start), RegLen: int64(length)}, nil
		}
		d.uses = d.uses[:0]
		for i := 0; i < len(s.Uses); i++ {
			a, err := d.uvarint()
			if err != nil {
				d.countErr(err)
				return Event{}, fmt.Errorf("trace: use addr: %w", err)
			}
			if !d.inSpace(a, 1) {
				return Event{}, d.badAddr("use", a)
			}
			d.uses = append(d.uses, int64(a))
		}
		if s.Op == ir.OpCall && d.wm != 0 {
			// The call allocates the callee's frame, which its parameter
			// defs write.
			_, d.wm = s.Callee.FrameAt(d.wm)
		}
		d.defs = d.defs[:0]
		for i := 0; i < s.NumDefs; i++ {
			a, err := d.uvarint()
			if err != nil {
				d.countErr(err)
				return Event{}, fmt.Errorf("trace: def addr: %w", err)
			}
			if !d.inSpace(a, 1) {
				return Event{}, d.badAddr("def", a)
			}
			d.defs = append(d.defs, int64(a))
		}
		if d.met != nil {
			d.met.StmtsRead.Inc()
		}
		return Event{Kind: EvStmt, Stmt: s, Uses: d.uses, Defs: d.defs}, nil
	}
	// Block boundary.
	v, err := d.uvarint()
	if err != nil {
		d.countErr(err)
		return Event{}, fmt.Errorf("trace: block record: %w", err)
	}
	if v == 0 {
		d.done = true
		return Event{Kind: EvEnd}, nil
	}
	// Compare as uint64: a huge id would turn negative as an int.
	id := v - 1
	if id >= uint64(len(d.p.Blocks)) {
		if d.met != nil {
			d.met.ErrBadBlock.Inc()
		}
		return Event{}, fmt.Errorf("trace: bad block id %d", id)
	}
	b := d.p.Blocks[id]
	if d.wm != 0 && !d.follows(b) {
		if d.met != nil {
			d.met.ErrBadBlock.Inc()
		}
		return Event{}, fmt.Errorf("trace: block %s cannot run after %v", b, d.prev)
	}
	d.blk = b
	d.stmtIdx = 0
	if d.met != nil {
		d.met.BlocksRead.Inc()
	}
	ev := Event{Kind: EvBlock, Block: d.blk, Ord: d.ord}
	d.ord++
	return ev, nil
}

// follows reports whether b can run right after the previous block
// record, and then makes b the previous one. The first record must be
// main's entry; after a call block comes the callee's entry, and the
// call's continuation waits on a stack until the matching return block,
// which it must follow; after any other block comes one of its
// successors. A stream that breaks this would have the builders run a
// block in another function's frame.
func (d *Decoder) follows(b *ir.Block) bool {
	var t *ir.Stmt
	if d.prev != nil {
		t = d.prev.Terminator()
	}
	switch {
	case d.prev == nil:
		if b != d.p.Main.Entry() {
			return false
		}
	case t != nil && t.Op == ir.OpCall:
		if b != t.Callee.Entry() {
			return false
		}
		d.conts = append(d.conts, d.prev.Succs[0])
	case t != nil && t.Op == ir.OpReturn:
		n := len(d.conts)
		if n == 0 || d.conts[n-1] != b {
			return false
		}
		d.conts = d.conts[:n-1]
	case !slices.Contains(d.prev.Succs, b):
		return false
	}
	d.prev = b
	return true
}

// Replay decodes the whole stream (header included) into a sink.
func Replay(p *ir.Program, r io.Reader, sink Sink) error {
	return ReplayWith(p, r, sink, nil)
}

// ReplayWith is Replay with a metrics bundle attached to the decoder.
func ReplayWith(p *ir.Program, r io.Reader, sink Sink, m *Metrics) error {
	d := NewDecoder(p, r, 0)
	d.SetMetrics(m)
	if err := d.ReadHeader(); err != nil {
		return err
	}
	for {
		ev, err := d.Next()
		if err != nil {
			return err
		}
		switch ev.Kind {
		case EvBlock:
			sink.Block(ev.Block)
		case EvStmt:
			sink.Stmt(ev.Stmt, ev.Uses, ev.Defs)
		case EvRegion:
			sink.RegionDef(ev.Stmt, ev.RegStart, ev.RegLen)
		case EvEnd:
			sink.End()
			return nil
		}
	}
}
