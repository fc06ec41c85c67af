// Package reexec answers slicing queries by re-executing the program
// instead of reading the trace back from disk. It reuses the LP
// backend's demand-driven backward traversal unchanged; only the
// segment materialization differs: where LP seeks into the trace file
// and decodes, reexec resumes the deterministic interpreter from the
// nearest preceding checkpoint and regenerates the segment's events in
// memory. Slices are therefore bit-identical to LP's (and to the full
// graphs'), but no dependence graph and no trace bytes are touched —
// the sweet spot is a recording queried rarely, where graph
// construction never amortizes.
//
// The backend trusts only the segment summary index and the recording's
// inputs. Every window it regenerates is cross-checked against the
// summaries (block counts and per-segment block sets); any disagreement
// is reported as a classified *Error so callers can fall back to a
// graph backend instead of returning a wrong slice.
package reexec

import (
	"errors"
	"fmt"
	"sort"

	"dynslice/internal/interp"
	"dynslice/internal/ir"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/explain"
	"dynslice/internal/slicing/lp"
	"dynslice/internal/telemetry"
	"dynslice/internal/trace"
)

// Error classes. Callers dispatch fallback on these, not on message
// text.
const (
	// ClassSummaryGap: the summary index has a gap, overlap, or empty
	// segment — some ordinal range (possibly the criterion's) has no
	// summary to resume toward.
	ClassSummaryGap = "summary_gap"
	// ClassSummaryTruncated: the summaries stop short of (or overrun)
	// the recorded block count; the tail of the trace is unindexed.
	ClassSummaryTruncated = "summary_truncated"
	// ClassDesync: re-execution disagreed with the summaries — wrong
	// block count in a window, or a block the summary never saw. The
	// recording's inputs and its summaries describe different runs.
	ClassDesync = "desync"
	// ClassExecFault: the interpreter itself failed during resume
	// (step limit, internal fault).
	ClassExecFault = "exec_fault"
)

// Error is a classified re-execution failure.
type Error struct {
	Class string
	Err   error
}

func (e *Error) Error() string { return "reexec: " + e.Class + ": " + e.Err.Error() }
func (e *Error) Unwrap() error { return e.Err }

// Classify returns the error's class, or "" when err did not originate
// here.
func Classify(err error) string {
	var re *Error
	if errors.As(err, &re) {
		return re.Class
	}
	return ""
}

// DefaultMaxWindowBlocks bounds how many block executions one resume
// materializes in memory at once. A window larger than this collects
// only the requested segment (the prefix is executed but not buffered).
const DefaultMaxWindowBlocks = 1 << 18

// Options configures a re-execution slicer. Everything here comes from
// the original recording: the same input and step budget reproduce the
// same run, and TotalBlocks is the recorded block-execution count the
// summaries must tile.
type Options struct {
	Input       []int64
	MaxSteps    int64
	TotalBlocks int64
	// Checkpoints are interpreter snapshots from the recording run,
	// ordered by ordinal. Empty is legal (resume always starts from
	// scratch) — correct, just slower for criteria late in the trace.
	Checkpoints []*interp.Checkpoint
	// MaxWindowBlocks overrides DefaultMaxWindowBlocks when > 0.
	MaxWindowBlocks int64
}

// Slicer is the re-execution backend. It satisfies the same query
// surface as LP (Slice, SliceAll, SliceObserved).
type Slicer struct {
	core *lp.Slicer
}

// New returns a re-execution slicer for program p whose recording
// produced the given segment summaries.
func New(p *ir.Program, segs []*trace.Segment, o Options) *Slicer {
	if o.MaxWindowBlocks <= 0 {
		o.MaxWindowBlocks = DefaultMaxWindowBlocks
	}
	src := &execSource{p: p, segs: segs, o: o}
	s := &Slicer{core: lp.NewFromSource(p, segs, src)}
	src.core = s.core
	return s
}

// SetTelemetry mints this backend's counters (reexec.queries etc.) on
// reg; the shared traversal reports its effort under them.
func (s *Slicer) SetTelemetry(reg *telemetry.Registry) {
	s.core.SetTelemetryNamed(reg, "reexec")
}

// Slice computes the backward slice for one criterion.
func (s *Slicer) Slice(c slicing.Criterion) (*slicing.Slice, *slicing.Stats, error) {
	return s.core.Slice(c)
}

// SliceAll batches criteria through shared re-executions: each window
// is regenerated once per 64-criterion chunk, not once per criterion.
func (s *Slicer) SliceAll(cs []slicing.Criterion) ([]*slicing.Slice, *slicing.Stats, error) {
	return s.core.SliceAll(cs)
}

// SliceObserved runs one query under an explain recorder.
func (s *Slicer) SliceObserved(c slicing.Criterion, rec *explain.Recorder) (*slicing.Slice, *slicing.Stats, error) {
	return s.core.SliceObserved(c, rec)
}

// execSource materializes segments by resuming the interpreter.
type execSource struct {
	p    *ir.Program
	segs []*trace.Segment
	o    Options
	core *lp.Slicer
}

func (es *execSource) Open() (lp.Cursor, error) {
	// A scan trusts the summary index for both skipping and resume
	// targeting, so it must be a contiguous tiling of the whole run.
	if err := trace.ValidateSegments(es.segs, es.o.TotalBlocks); err != nil {
		return nil, &Error{Class: classifySummary(err), Err: err}
	}
	return &cursor{src: es}, nil
}

func classifySummary(err error) string {
	if errors.Is(err, trace.ErrSummaryTruncated) {
		return ClassSummaryTruncated
	}
	return ClassSummaryGap
}

// cursor serves one query's backward scan. It caches a single
// contiguous window of regenerated block executions: the traversal
// requests segments in descending order, so one resume from a
// checkpoint serves every segment between that checkpoint and the
// request that triggered it.
type cursor struct {
	src *execSource
	win []lp.BlockExec
	lo  int64 // ordinal of win[0]
	hi  int64 // one past the last ordinal in win
}

func (c *cursor) Close() error { return nil }

func (c *cursor) Segment(seg *trace.Segment, alloc func(int) []int64) ([]lp.BlockExec, error) {
	if seg.StartOrd < c.lo || seg.EndOrd > c.hi || c.win == nil {
		if err := c.fill(seg, alloc); err != nil {
			return nil, err
		}
	}
	serve := c.win[seg.StartOrd-c.lo : seg.EndOrd-c.lo]
	for i := range serve {
		if !seg.HasBlock(serve[i].B.ID) {
			return nil, &Error{Class: ClassDesync, Err: fmt.Errorf(
				"re-executed block %d at ordinal %d is not in segment [%d,%d)'s block set",
				serve[i].B.ID, serve[i].Ord, seg.StartOrd, seg.EndOrd)}
		}
	}
	return serve, nil
}

// fill regenerates the window ending at seg.EndOrd. It resumes from
// the nearest checkpoint at or before seg.StartOrd and buffers from the
// first segment boundary the resume can cover, so later (descending)
// requests down to that boundary are served without re-executing.
func (c *cursor) fill(seg *trace.Segment, alloc func(int) []int64) error {
	cp := c.checkpointFor(seg.StartOrd)
	from := int64(0)
	if cp != nil {
		from = cp.Ord
	}
	lo := from
	if idx := trace.SegmentAt(c.src.segs, from); idx >= 0 {
		// Align the buffer start up to a segment boundary: a partially
		// covered segment could never be served whole.
		if s := c.src.segs[idx]; s.StartOrd < from {
			lo = s.EndOrd
		} else {
			lo = s.StartOrd
		}
	}
	if seg.EndOrd-lo > c.src.o.MaxWindowBlocks {
		lo = seg.StartOrd
	}
	// The traversal is done with the previous window once it asks for a
	// segment outside it (see lp.Cursor), so its array can be reused. The
	// window stays unset until the fill succeeds.
	col := &collector{core: c.src.core, lo: lo, alloc: alloc, execs: c.win[:0]}
	c.win = nil
	if n := seg.EndOrd - lo; int64(cap(col.execs)) < n {
		col.execs = make([]lp.BlockExec, 0, n)
	}
	res, err := interp.Resume(c.src.p, cp, interp.ResumeOptions{
		Input:    c.src.o.Input,
		MaxSteps: c.src.o.MaxSteps,
		Sink:     col,
		StartOrd: lo,
		StopOrd:  seg.EndOrd,
	})
	if err != nil {
		return &Error{Class: ClassExecFault, Err: err}
	}
	if got := int64(len(col.execs)); got != seg.EndOrd-lo {
		return &Error{Class: ClassDesync, Err: fmt.Errorf(
			"re-execution produced %d block executions in window [%d,%d), summaries promise %d (run stopped=%v)",
			got, lo, seg.EndOrd, seg.EndOrd-lo, res.Stopped)}
	}
	c.win, c.lo, c.hi = col.execs, lo, seg.EndOrd
	return nil
}

// checkpointFor returns the latest checkpoint at or before ord, or nil.
func (c *cursor) checkpointFor(ord int64) *interp.Checkpoint {
	cks := c.src.o.Checkpoints
	i := sort.Search(len(cks), func(i int) bool { return cks[i].Ord > ord })
	if i == 0 {
		return nil
	}
	return cks[i-1]
}

// collector is the trace.Sink that turns the interpreter's event stream
// back into the flat BlockExec form the traversal consumes. It indexes
// into execs rather than holding a pointer: append may reallocate.
type collector struct {
	core  *lp.Slicer
	lo    int64
	alloc func(int) []int64
	execs []lp.BlockExec
}

func (c *collector) Block(b *ir.Block) {
	e := lp.BlockExec{B: b, Ord: c.lo + int64(len(c.execs))}
	e.Addrs = c.alloc(c.core.BufSize(b))
	c.execs = append(c.execs, e)
}

func (c *collector) Stmt(_ *ir.Stmt, uses, defs []int64) {
	e := &c.execs[len(c.execs)-1]
	e.Addrs = append(e.Addrs, uses...)
	e.Addrs = append(e.Addrs, defs...)
}

func (c *collector) RegionDef(_ *ir.Stmt, start, length int64) {
	e := &c.execs[len(c.execs)-1]
	e.Addrs = append(e.Addrs, start, length)
}

func (c *collector) End() {}
