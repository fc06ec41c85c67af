// Checkpoint capture and resumable re-execution. The interpreter is
// deterministic — same program, same input vector, same event stream —
// so a snapshot of the machine state at a block boundary is enough to
// regenerate any suffix of the trace on demand. The reexec slicing
// backend uses this to materialize trace segments without reading (or
// even keeping) the trace file: it resumes from the nearest checkpoint
// at or before the segment and collects the events of the segment's
// ordinal window.
package interp

import (
	"fmt"

	"dynslice/internal/ir"
	"dynslice/internal/trace"
)

// DefaultCheckpointBudget caps the total bytes retained across a run's
// checkpoints when Options.CheckpointBudget is 0. Exceeding the budget
// drops every other checkpoint and doubles the capture interval, so a
// long run degrades to sparser (never absent) resume points.
const DefaultCheckpointBudget int64 = 64 << 20

// Checkpoint is a resumable snapshot of the machine, taken immediately
// before a block execution. Ord is that block's execution ordinal (the
// same counting trace segment summaries use), so resuming from a
// checkpoint regenerates the event stream from ordinal Ord onward.
// A checkpoint holds deep copies of the mutable state and is safe to
// resume from concurrently; it is tied to the *ir.Program it was
// captured on.
type Checkpoint struct {
	Ord   int64 // block-execution ordinal about to run when captured
	Steps int64 // statement executions completed at capture

	block     *ir.Block
	mem       []int64
	watermark int64
	frames    []frame
	inPos     int
}

// memBytes approximates the checkpoint's retained size for budgeting.
func (cp *Checkpoint) memBytes() int64 {
	return int64(len(cp.mem))*8 + int64(len(cp.frames))*24 + 64
}

// ResumeOptions configures Resume.
type ResumeOptions struct {
	// Input must be the original run's input vector: determinism is what
	// makes the regenerated events identical to the recorded ones.
	Input []int64
	// MaxSteps is the absolute statement budget, counted from the start
	// of the original run (0 = DefaultMaxSteps). A checkpoint resumes
	// with its captured step count, so the same budget as the original
	// run can never fault where the original did not.
	MaxSteps int64
	// Sink receives the regenerated events. Delivery is gated at block
	// granularity: events of block ordinals < StartOrd are suppressed.
	Sink trace.Sink
	// StartOrd is the first block ordinal whose events are delivered.
	StartOrd int64
	// StopOrd halts execution before the block with this ordinal runs
	// (0 = run to the program's natural end). Result.Stopped reports
	// which way the run ended; Sink.End is only delivered on natural
	// termination.
	StopOrd int64
}

// Resume re-enters a deterministic execution from cp — or from the
// program's initial state when cp is nil — and delivers the trace
// events of block ordinals [StartOrd, StopOrd) to the sink. The
// returned Result carries absolute counters (Steps and BlockExecs
// include everything before the checkpoint); Output holds only values
// printed after the resume point.
func Resume(p *ir.Program, cp *Checkpoint, o ResumeOptions) (*Result, error) {
	m := &machine{
		p:        p,
		input:    o.Input,
		maxSteps: o.MaxSteps,
		stopOrd:  o.StopOrd,
	}
	if m.maxSteps == 0 {
		m.maxSteps = DefaultMaxSteps
	}
	sink := o.Sink
	if sink == nil {
		sink = nopSink{}
	}
	var b *ir.Block
	if cp == nil {
		m.enterMain()
		b = p.Main.Entry()
	} else {
		if o.StartOrd < cp.Ord {
			return nil, fmt.Errorf("interp: resume window starts at ordinal %d, before checkpoint ordinal %d", o.StartOrd, cp.Ord)
		}
		m.mem = append([]int64(nil), cp.mem...)
		m.watermark = cp.watermark
		m.frames = append([]frame(nil), cp.frames...)
		m.inPos = cp.inPos
		m.steps = cp.Steps
		m.blockEx = cp.Ord
		b = cp.block
	}
	m.emitFrom = o.StartOrd
	if m.blockEx >= m.emitFrom {
		m.sink = sink
	} else {
		m.sink = nopSink{}
		m.gated = sink
	}
	ret, err := m.run(b)
	if err != nil {
		return nil, err
	}
	if !m.stopped {
		m.sink.End()
	}
	return &Result{
		Output:      m.output,
		ReturnValue: ret,
		Steps:       m.steps,
		BlockExecs:  m.blockEx,
		Watermark:   m.watermark,
		Stopped:     m.stopped,
	}, nil
}

// capture appends a checkpoint for the block about to execute and
// enforces the byte budget by thinning: when over budget, every other
// checkpoint (counted from the newest, which is always kept) is
// dropped and the capture interval doubles.
func (m *machine) capture(b *ir.Block) {
	cp := &Checkpoint{
		Ord:       m.blockEx,
		Steps:     m.steps,
		block:     b,
		mem:       append([]int64(nil), m.mem[:m.watermark]...),
		watermark: m.watermark,
		frames:    append([]frame(nil), m.frames...),
		inPos:     m.inPos,
	}
	m.cks = append(m.cks, cp)
	m.ckBytes += cp.memBytes()
	for m.ckBudget > 0 && m.ckBytes > m.ckBudget && len(m.cks) > 1 {
		kept := m.cks[:0]
		var bytes int64
		last := len(m.cks) - 1
		for i, c := range m.cks {
			if (last-i)%2 == 0 { // keep the newest and every other before it
				kept = append(kept, c)
				bytes += c.memBytes()
			}
		}
		m.cks = kept
		m.ckBytes = bytes
		m.ckEvery *= 2
	}
}
