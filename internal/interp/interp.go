// Package interp executes IR programs while emitting an execution trace:
// one event per basic-block execution and one event per statement
// execution carrying the dynamic addresses of each use slot and def slot.
// It is the reproduction's substitute for the paper's Trimaran-based
// instrumentation.
//
// Memory model: a flat, growing address space of 64-bit words. Globals
// occupy a fixed segment starting at GlobalBase (addresses below GlobalBase
// act as a null-pointer guard). Every call allocates a fresh frame at the
// high-water mark; frames are never reused, so a stale address can never
// masquerade as a new variable's definition.
//
// Defined semantics chosen to keep expression evaluation control-flow free
// (which in turn keeps use-slot order static): && and || evaluate both
// operands; division or modulo by zero yields zero; input() past the end of
// the input vector yields zero.
package interp

import (
	"fmt"

	"dynslice/internal/ir"
	"dynslice/internal/lang"
	"dynslice/internal/telemetry"
	"dynslice/internal/trace"
)

// GlobalBase is the address of the first global; lower addresses are
// invalid so that zero-valued (uninitialized) pointers fault on use. The
// frame layout follows ir's frame rule (ir.Program.MainFrame,
// ir.Func.FrameAt).
const GlobalBase = ir.GlobalBase

// DefaultMaxSteps bounds statement executions when Options.MaxSteps is 0.
const DefaultMaxSteps int64 = 200_000_000

// Options configures a run.
type Options struct {
	Input     []int64             // values consumed by input()
	MaxSteps  int64               // statement execution budget (0 = DefaultMaxSteps)
	Sink      trace.Sink          // optional trace consumer
	Telemetry *telemetry.Registry // optional metrics (nil = off, zero cost)
	// CheckpointEvery captures a resumable machine snapshot every N
	// block executions (0 = no checkpoints). Snapshots land in
	// Result.Checkpoints, ordered by ordinal, and feed Resume.
	CheckpointEvery int64
	// CheckpointBudget caps the bytes retained across checkpoints
	// (0 = DefaultCheckpointBudget); see Checkpoint.
	CheckpointBudget int64
	// Watermark sizes memory for the final address space, in words, up
	// front: the Result.Watermark of an earlier run on the same input,
	// which the run matches exactly. 0 grows memory on demand; a wrong
	// value costs only growth.
	Watermark int64
}

// Result summarizes a completed run.
type Result struct {
	Output      []int64
	ReturnValue int64 // main's return value
	Steps       int64 // statement executions
	BlockExecs  int64 // basic-block executions (== full-graph timestamps)
	Watermark   int64 // final address-space size in words
	Checkpoints []*Checkpoint
	// Stopped marks a Resume run halted by StopOrd before natural
	// termination (always false for Run).
	Stopped bool
}

// RuntimeError is an execution fault with a source position.
type RuntimeError struct {
	Pos lang.Pos
	Msg string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string { return fmt.Sprintf("runtime error at %s: %s", e.Pos, e.Msg) }

type frame struct {
	fn   *ir.Func
	base int64
	cont *ir.Block // caller block to resume after return
}

type machine struct {
	p         *ir.Program
	mem       []int64
	watermark int64
	frames    []frame
	sink      trace.Sink
	input     []int64
	inPos     int
	output    []int64
	steps     int64
	maxSteps  int64
	blockEx   int64
	stepAbort bool    // run ended by the step-limit fault
	uses      []int64 // per-statement scratch
	defs      [1]int64
	callVals  []int64 // per-call scratch: argument values and parameter
	callDefs  []int64 // addresses, which sinks see only during the call

	// Checkpoint capture (Run with Options.CheckpointEvery > 0).
	ckEvery  int64
	ckNext   int64
	ckBudget int64
	ckBytes  int64
	cks      []*Checkpoint

	// Windowed resume (Resume): suppress events before emitFrom, halt
	// before stopOrd.
	emitFrom int64
	gated    trace.Sink // real sink to swap in once blockEx reaches emitFrom
	stopOrd  int64
	stopped  bool
}

// Run executes the program's main function.
func Run(p *ir.Program, opts Options) (*Result, error) {
	m := &machine{
		p:        p,
		sink:     opts.Sink,
		input:    opts.Input,
		maxSteps: opts.MaxSteps,
		mem:      ir.ReserveTable([]int64(nil), opts.Watermark),
	}
	if m.maxSteps == 0 {
		m.maxSteps = DefaultMaxSteps
	}
	if m.sink == nil {
		m.sink = nopSink{}
	}
	if opts.CheckpointEvery > 0 {
		m.ckEvery = opts.CheckpointEvery
		m.ckNext = opts.CheckpointEvery
		m.ckBudget = opts.CheckpointBudget
		if m.ckBudget == 0 {
			m.ckBudget = DefaultCheckpointBudget
		}
	}
	m.enterMain()

	ret, err := m.run(p.Main.Entry())
	// Telemetry is flushed once from accumulated machine state, so the
	// per-statement execution loop carries no instrumentation at all.
	if reg := opts.Telemetry; reg != nil {
		reg.Counter("interp.runs").Inc()
		reg.Counter("interp.steps").Add(m.steps)
		reg.Counter("interp.blocks").Add(m.blockEx)
		reg.Counter("interp.input_reads").Add(int64(m.inPos))
		reg.Counter("interp.outputs").Add(int64(len(m.output)))
		if err != nil {
			if m.stepAbort {
				reg.Counter("interp.err.max_steps").Inc()
			} else {
				reg.Counter("interp.err.runtime_fault").Inc()
			}
		}
	}
	if err != nil {
		return nil, err
	}
	m.sink.End()
	return &Result{
		Output:      m.output,
		ReturnValue: ret,
		Steps:       m.steps,
		BlockExecs:  m.blockEx,
		Watermark:   m.watermark,
		Checkpoints: m.cks,
	}, nil
}

type nopSink struct{}

func (nopSink) Block(*ir.Block)                  {}
func (nopSink) Stmt(*ir.Stmt, []int64, []int64)  {}
func (nopSink) RegionDef(*ir.Stmt, int64, int64) {}
func (nopSink) End()                             {}

// enterMain allocates the globals and main's frame.
func (m *machine) enterMain() {
	base, wm := m.p.MainFrame()
	m.watermark = wm
	m.grow(wm)
	m.frames = append(m.frames, frame{fn: m.p.Main, base: base})
}

// grow extends memory to the new watermark n. Frames are never reused
// and every store below is bounds-checked against the watermark, so no
// word above it is ever written: the zero tail ir.GrowTable relies on
// holds, for a machine resumed from a checkpoint's copy too.
func (m *machine) grow(n int64) {
	m.mem = ir.GrowTable(m.mem, int(n))
}

func (m *machine) cur() *frame { return &m.frames[len(m.frames)-1] }

func (m *machine) addrOf(o *ir.Object) int64 {
	if o.Fn == nil {
		return GlobalBase + o.Off
	}
	return m.cur().base + o.Off
}

func (m *machine) fault(s *ir.Stmt, format string, args ...interface{}) error {
	return &RuntimeError{Pos: s.Pos, Msg: fmt.Sprintf(format, args...)}
}

func (m *machine) run(b *ir.Block) (int64, error) {
	for {
		if m.stopOrd > 0 && m.blockEx >= m.stopOrd {
			m.stopped = true
			return 0, nil
		}
		if m.gated != nil && m.blockEx >= m.emitFrom {
			m.sink = m.gated
			m.gated = nil
		}
		if m.ckEvery > 0 && m.blockEx == m.ckNext {
			m.capture(b)
			m.ckNext = m.blockEx + m.ckEvery
		}
		m.sink.Block(b)
		m.blockEx++
		next, ret, halted, err := m.execBlock(b)
		if err != nil {
			return 0, err
		}
		if halted {
			return ret, nil
		}
		b = next
	}
}

// execBlock executes all statements of b and returns the next block.
func (m *machine) execBlock(b *ir.Block) (next *ir.Block, ret int64, halted bool, err error) {
	for _, s := range b.Stmts {
		m.steps++
		if m.steps > m.maxSteps {
			m.stepAbort = true
			return nil, 0, false, m.fault(s, "step limit of %d exceeded", m.maxSteps)
		}
		m.uses = m.uses[:0]
		switch s.Op {
		case ir.OpAssign:
			v, err := m.eval(s, s.Rhs)
			if err != nil {
				return nil, 0, false, err
			}
			var addr int64
			switch s.Lhs {
			case ir.LVar:
				addr = m.addrOf(m.p.Obj(s.LhsObj))
			case ir.LIndex:
				idx, err := m.eval(s, s.LhsIdx)
				if err != nil {
					return nil, 0, false, err
				}
				o := m.p.Obj(s.LhsObj)
				if idx < 0 || idx >= o.Size {
					return nil, 0, false, m.fault(s, "index %d out of range for %s[%d]", idx, o.Name, o.Size)
				}
				addr = m.addrOf(o) + idx
			case ir.LDeref:
				a, err := m.eval(s, s.LhsAddr)
				if err != nil {
					return nil, 0, false, err
				}
				if a < GlobalBase || a >= m.watermark {
					return nil, 0, false, m.fault(s, "store through invalid address %d", a)
				}
				addr = a
			}
			m.mem[addr] = v
			m.defs[0] = addr
			m.sink.Stmt(s, m.uses, m.defs[:1])

		case ir.OpDeclArr:
			o := m.p.Obj(s.Obj)
			start := m.addrOf(o)
			for a := start; a < start+o.Size; a++ {
				m.mem[a] = 0
			}
			m.sink.RegionDef(s, start, o.Size)

		case ir.OpPrint:
			v, err := m.eval(s, s.Rhs)
			if err != nil {
				return nil, 0, false, err
			}
			m.output = append(m.output, v)
			m.sink.Stmt(s, m.uses, nil)

		case ir.OpCond:
			v, err := m.eval(s, s.Rhs)
			if err != nil {
				return nil, 0, false, err
			}
			m.sink.Stmt(s, m.uses, nil)
			if v != 0 {
				return b.Succs[0], 0, false, nil
			}
			return b.Succs[1], 0, false, nil

		case ir.OpCall:
			callee := s.Callee
			vals := m.callVals[:0]
			for _, a := range s.Args {
				v, err := m.eval(s, a)
				if err != nil {
					return nil, 0, false, err
				}
				vals = append(vals, v)
			}
			base, wm := callee.FrameAt(m.watermark)
			m.watermark = wm
			m.grow(wm)
			defs := m.callDefs[:0]
			for i, prm := range callee.Params {
				addr := base + prm.Off
				m.mem[addr] = vals[i]
				defs = append(defs, addr)
			}
			m.callVals, m.callDefs = vals, defs
			m.sink.Stmt(s, m.uses, defs)
			m.frames = append(m.frames, frame{fn: callee, base: base, cont: b.Succs[0]})
			return callee.Entry(), 0, false, nil

		case ir.OpReturn:
			v, err := m.eval(s, s.Rhs)
			if err != nil {
				return nil, 0, false, err
			}
			var retAddr int64
			if len(m.frames) > 1 {
				caller := &m.frames[len(m.frames)-2]
				retAddr = caller.base + caller.fn.Ret.Off
			} else {
				retAddr = m.cur().base + m.cur().fn.Ret.Off
			}
			m.mem[retAddr] = v
			m.defs[0] = retAddr
			m.sink.Stmt(s, m.uses, m.defs[:1])
			popped := m.frames[len(m.frames)-1]
			m.frames = m.frames[:len(m.frames)-1]
			if len(m.frames) == 0 {
				return nil, v, true, nil
			}
			return popped.cont, 0, false, nil
		}
	}
	// Fall through: empty or unterminated block with a single successor.
	return b.Succs[0], 0, false, nil
}

// eval evaluates an expression, appending the address of every memory read
// to m.uses in evaluation order (matching the statement's use slots).
func (m *machine) eval(s *ir.Stmt, e ir.Expr) (int64, error) {
	switch x := e.(type) {
	case *ir.EConst:
		return x.Val, nil
	case *ir.ELoad:
		addr := m.addrOf(m.p.Obj(x.Obj))
		m.uses = append(m.uses, addr)
		return m.mem[addr], nil
	case *ir.ELoadIdx:
		idx, err := m.eval(s, x.Idx)
		if err != nil {
			return 0, err
		}
		o := m.p.Obj(x.Obj)
		if idx < 0 || idx >= o.Size {
			return 0, m.fault(s, "index %d out of range for %s[%d]", idx, o.Name, o.Size)
		}
		addr := m.addrOf(o) + idx
		m.uses = append(m.uses, addr)
		return m.mem[addr], nil
	case *ir.ELoadPtr:
		a, err := m.eval(s, x.Addr)
		if err != nil {
			return 0, err
		}
		if a < GlobalBase || a >= m.watermark {
			return 0, m.fault(s, "load through invalid address %d", a)
		}
		m.uses = append(m.uses, a)
		return m.mem[a], nil
	case *ir.EAddr:
		o := m.p.Obj(x.Obj)
		if x.Idx == nil {
			return m.addrOf(o), nil
		}
		idx, err := m.eval(s, x.Idx)
		if err != nil {
			return 0, err
		}
		if idx < 0 || idx >= o.Size {
			return 0, m.fault(s, "index %d out of range for &%s[%d]", idx, o.Name, o.Size)
		}
		return m.addrOf(o) + idx, nil
	case *ir.EUnary:
		v, err := m.eval(s, x.X)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case lang.Minus:
			return -v, nil
		case lang.Not:
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
	case *ir.EBinary:
		a, err := m.eval(s, x.X)
		if err != nil {
			return 0, err
		}
		b, err := m.eval(s, x.Y)
		if err != nil {
			return 0, err
		}
		return applyBinary(x.Op, a, b), nil
	case *ir.EInput:
		if m.inPos < len(m.input) {
			v := m.input[m.inPos]
			m.inPos++
			return v, nil
		}
		return 0, nil
	}
	return 0, m.fault(s, "internal: bad expression %T", e)
}

func applyBinary(op lang.Kind, a, b int64) int64 {
	bool2int := func(c bool) int64 {
		if c {
			return 1
		}
		return 0
	}
	switch op {
	case lang.Plus:
		return a + b
	case lang.Minus:
		return a - b
	case lang.Star:
		return a * b
	case lang.Slash:
		if b == 0 {
			return 0
		}
		return a / b
	case lang.Percent:
		if b == 0 {
			return 0
		}
		return a % b
	case lang.Lt:
		return bool2int(a < b)
	case lang.Le:
		return bool2int(a <= b)
	case lang.Gt:
		return bool2int(a > b)
	case lang.Ge:
		return bool2int(a >= b)
	case lang.EqEq:
		return bool2int(a == b)
	case lang.NotEq:
		return bool2int(a != b)
	case lang.AndAnd:
		return bool2int(a != 0 && b != 0)
	case lang.OrOr:
		return bool2int(a != 0 || b != 0)
	}
	return 0
}
