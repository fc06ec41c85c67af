// Package ir defines the intermediate representation the slicing algorithms
// operate on: programs of functions, functions of basic blocks, blocks of
// straight-line statements. Every statement carries a statically known,
// ordered list of "use slots" (memory read sites) and "def slots" (memory
// write sites); at run time the interpreter emits one address per slot, so
// static analyses and the execution trace line up slot by slot.
//
// Design notes relevant to slicing:
//
//   - Call statements terminate basic blocks. This keeps the global
//     timestamp order of the trace monotone (callee blocks execute between
//     the call block and the continuation block).
//   - Expressions contain no calls (lowering hoists them) and evaluate
//     without internal control flow (&& and || do not short-circuit;
//     division by zero yields zero), so the number and order of loads per
//     statement is fixed.
//   - Each function has a synthetic return-value object ($ret). A callee's
//     return statement writes the *caller's* $ret slot; the continuation
//     block reads it. Data dependences therefore flow through calls purely
//     via addresses.
package ir

import (
	"fmt"
	"strings"

	"dynslice/internal/lang"
)

// ObjID identifies an abstract memory object (a scalar variable, an array,
// or a synthetic object such as a function's return slot).
type ObjID int32

// NoObj marks the absence of an object.
const NoObj ObjID = -1

// StmtID identifies a statement program-wide.
type StmtID int32

// BlockID identifies a basic block program-wide.
type BlockID int32

// Object is an abstract memory object. Scalars occupy one word; arrays
// occupy Size words. Objects are allocated at a fixed offset within their
// function's frame (locals) or within the global segment (globals).
type Object struct {
	ID        ObjID
	Name      string
	Fn        *Func // nil for globals
	Size      int64 // 1 for scalars, >=1 for arrays
	IsArray   bool
	AddrTaken bool  // appears in an address-of expression
	Off       int64 // offset within frame or global segment
	IsRet     bool  // the synthetic $ret object of Fn
}

// String returns a debug name such as "g" or "f.x".
func (o *Object) String() string {
	if o.Fn != nil {
		return o.Fn.Name + "." + o.Name
	}
	return o.Name
}

// Op is a statement opcode.
type Op int

// Statement opcodes.
const (
	OpAssign  Op = iota // Lhs <- Rhs
	OpDeclArr           // array declaration: zero-defines the whole object
	OpCond              // conditional branch on Cond (block terminator, 2 succs)
	OpCall              // call Callee(Args...) (block terminator, 1 succ)
	OpReturn            // return [Rhs] (block terminator, succ = exit)
	OpPrint             // print(Rhs)
)

var opNames = [...]string{"assign", "declarr", "cond", "call", "return", "print"}

// String returns the opcode mnemonic.
func (op Op) String() string { return opNames[op] }

// LhsKind distinguishes assignment target forms.
type LhsKind int

// Assignment target forms.
const (
	LNone  LhsKind = iota
	LVar           // scalar variable
	LIndex         // array element a[i]
	LDeref         // through pointer *e
)

// UseSlot describes one memory read site of a statement. Slots are ordered
// by evaluation order; the interpreter emits exactly one address per slot
// per execution.
type UseSlot struct {
	Obj    ObjID   // the scalar or array object read, or NoObj for *e reads
	MayPts []ObjID // for *e reads: may points-to set of the address (filled by alias analysis)
	IsPtr  bool    // true if this slot is a load through a pointer (*e)
	IsIdx  bool    // true if this slot is an array element load (a[i])
}

// Scalar reports whether the slot reads a named scalar object, the only
// case in which block-local static def-use inference is sound.
func (u *UseSlot) Scalar() bool { return !u.IsPtr && !u.IsIdx && u.Obj != NoObj }

// Stmt is a single IR statement.
type Stmt struct {
	ID    StmtID
	Block *Block
	Idx   int // index within Block.Stmts
	Op    Op
	Pos   lang.Pos

	// Assignment target (OpAssign only).
	Lhs     LhsKind
	LhsObj  ObjID // LVar: the scalar; LIndex: the array
	LhsIdx  Expr  // LIndex: index expression
	LhsAddr Expr  // LDeref: pointer expression

	Rhs    Expr       // OpAssign, OpPrint, OpReturn (nil for bare return), OpCond
	Callee *Func      // OpCall
	Args   []Expr     // OpCall
	Obj    ObjID      // OpDeclArr: the array object
	Uses   []*UseSlot // ordered memory read sites (filled by finalize)

	// Static def summary (filled by finalize + alias analysis):
	MustDef ObjID   // scalar object definitely written, or NoObj
	MayDefs []ObjID // objects possibly written (arrays, pts targets, callee effects)
	NumDefs int     // number of runtime def addresses emitted (fixed per stmt)
}

// String renders the statement for debugging.
func (s *Stmt) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "s%d:%s", s.ID, s.Op)
	return b.String()
}

// Block is a basic block: straight-line statements, with control transfer
// only at the end. Possible terminators: OpCond (two successors: true then
// false), OpCall (one successor: the continuation), OpReturn (successor is
// the function exit), or fall-through (one successor).
type Block struct {
	ID    BlockID
	Fn    *Func
	Index int // index within Fn.Blocks
	Stmts []*Stmt
	Succs []*Block
	Preds []*Block

	// Control dependence (filled by analysis in package dataflow, stored
	// here for convenient access by builders): the set of blocks this block
	// is control dependent on.
	CDAncestors []*Block
}

// Terminator returns the final statement if it is a control-transfer
// statement, else nil.
func (b *Block) Terminator() *Stmt {
	if len(b.Stmts) == 0 {
		return nil
	}
	last := b.Stmts[len(b.Stmts)-1]
	switch last.Op {
	case OpCond, OpCall, OpReturn:
		return last
	}
	return nil
}

// String returns a short block label such as "f#3".
func (b *Block) String() string { return fmt.Sprintf("%s#%d", b.Fn.Name, b.Index) }

// Func is a function: a CFG of basic blocks with a single entry and a
// single synthetic exit block.
type Func struct {
	ID        int
	Name      string
	Params    []*Object
	Ret       *Object // synthetic $ret object
	Locals    []*Object
	Blocks    []*Block // Blocks[0] is the entry
	Exit      *Block   // synthetic, empty
	FrameSize int64

	// MOD is the set of objects this function (transitively) may write,
	// restricted to globals and address-taken objects. Filled by alias
	// analysis; consulted when deciding whether a call kills a value.
	MOD map[ObjID]bool
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// GlobalBase is the address of the first global; lower addresses are
// invalid so that zero-valued (uninitialized) pointers fault on use.
const GlobalBase int64 = 16

// The frame rule, shared by the interpreter and the trace decoder: the
// globals occupy [GlobalBase, GlobalBase+GlobalSize), main's frame
// follows, and every call allocates its callee's frame at the high-water
// mark. Frames are never reused, so every address a run touches lies in
// [GlobalBase, watermark).

// FrameAt returns the base address of a frame of f allocated at
// watermark w, and the watermark past it.
func (f *Func) FrameAt(w int64) (base, watermark int64) { return w, w + f.FrameSize }

// MainFrame returns the base address of main's frame and the watermark
// once it is allocated: the address space a run starts with.
func (p *Program) MainFrame() (base, watermark int64) {
	return p.Main.FrameAt(GlobalBase + p.GlobalSize)
}

// GrowTable extends an address-indexed table to n zeroed slots. A table
// grows with the address space, a frame at a time, so when it must move
// it at least doubles: append's 1.25x steps for large slices would copy
// it about five times over.
func GrowTable[T any](t []T, n int) []T {
	if n <= cap(t) {
		return t[:n] // the table never shrinks, so [len, cap) is zero
	}
	out := make([]T, n, max(n, 2*cap(t)))
	copy(out, t)
	return out
}

// ReserveTable returns t with room for n slots, so that GrowTable reaches
// n without moving it. A run is deterministic and never reuses a frame,
// so the Watermark of an earlier run on the same input sizes a table
// exactly; any other n costs only growth. The length is unchanged and
// [len, cap) stays zero.
func ReserveTable[T any](t []T, n int64) []T {
	if n <= int64(cap(t)) {
		return t
	}
	out := make([]T, len(t), n)
	copy(out, t)
	return out
}

// TrimTable returns t in an allocation of exactly its length, for a
// table kept once built.
func TrimTable[T any](t []T) []T {
	if len(t) == cap(t) {
		return t
	}
	out := make([]T, len(t))
	copy(out, t)
	return out
}

// Program is a lowered program.
type Program struct {
	Funcs      []*Func
	Main       *Func
	Globals    []*Object
	Objects    []*Object // all objects, indexed by ObjID
	Stmts      []*Stmt   // all statements, indexed by StmtID
	Blocks     []*Block  // all blocks, indexed by BlockID
	GlobalSize int64     // words occupied by the global segment
	Source     string    // original source text (for diagnostics)
}

// Obj returns the object with the given ID.
func (p *Program) Obj(id ObjID) *Object { return p.Objects[id] }

// Stmt returns the statement with the given ID.
func (p *Program) Stmt(id StmtID) *Stmt { return p.Stmts[id] }

// Block returns the block with the given ID.
func (p *Program) Block(id BlockID) *Block { return p.Blocks[id] }

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// ---- IR expressions ----

// Expr is an IR expression. IR expressions contain no calls and no control
// flow; they evaluate to an int64.
type Expr interface{ irExpr() }

// EConst is an integer constant.
type EConst struct{ Val int64 }

// ELoad reads a scalar object.
type ELoad struct {
	Obj  ObjID
	Slot int // index into the statement's Uses
}

// ELoadIdx reads an array element.
type ELoadIdx struct {
	Obj  ObjID
	Idx  Expr
	Slot int
}

// ELoadPtr reads through a pointer-valued expression.
type ELoadPtr struct {
	Addr Expr
	Slot int
}

// EAddr computes the address of a scalar (Idx nil) or array element.
type EAddr struct {
	Obj ObjID
	Idx Expr // nil for scalars
}

// EUnary is -x or !x.
type EUnary struct {
	Op lang.Kind
	X  Expr
}

// EBinary is a binary operation (no short-circuiting; x/0 == x%0 == 0).
type EBinary struct {
	Op   lang.Kind
	X, Y Expr
}

// EInput reads the next program input value (no memory use).
type EInput struct{}

func (*EConst) irExpr()   {}
func (*ELoad) irExpr()    {}
func (*ELoadIdx) irExpr() {}
func (*ELoadPtr) irExpr() {}
func (*EAddr) irExpr()    {}
func (*EUnary) irExpr()   {}
func (*EBinary) irExpr()  {}
func (*EInput) irExpr()   {}

// WalkExpr visits e and all subexpressions in evaluation order.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	switch x := e.(type) {
	case *EConst, *EInput:
	case *ELoad:
	case *ELoadIdx:
		WalkExpr(x.Idx, fn)
	case *ELoadPtr:
		WalkExpr(x.Addr, fn)
	case *EAddr:
		WalkExpr(x.Idx, fn)
	case *EUnary:
		WalkExpr(x.X, fn)
	case *EBinary:
		WalkExpr(x.X, fn)
		WalkExpr(x.Y, fn)
	}
	fn(e)
}

// Dump renders the whole program as text, one block per paragraph. Intended
// for debugging and golden tests.
func (p *Program) Dump() string {
	var b strings.Builder
	for _, f := range p.Funcs {
		fmt.Fprintf(&b, "func %s(", f.Name)
		for i, prm := range f.Params {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(prm.Name)
		}
		b.WriteString(")\n")
		for _, blk := range f.Blocks {
			fmt.Fprintf(&b, "  block %d (B%d)", blk.Index, blk.ID)
			if len(blk.Succs) > 0 {
				b.WriteString(" ->")
				for _, s := range blk.Succs {
					fmt.Fprintf(&b, " %d", s.Index)
				}
			}
			b.WriteString("\n")
			for _, s := range blk.Stmts {
				fmt.Fprintf(&b, "    s%-4d %s  uses=%d defs=%d", s.ID, describeStmt(p, s), len(s.Uses), s.NumDefs)
				b.WriteString("\n")
			}
		}
	}
	return b.String()
}

func describeStmt(p *Program, s *Stmt) string {
	switch s.Op {
	case OpAssign:
		switch s.Lhs {
		case LVar:
			return fmt.Sprintf("%s = %s", p.Obj(s.LhsObj).Name, exprString(p, s.Rhs))
		case LIndex:
			return fmt.Sprintf("%s[%s] = %s", p.Obj(s.LhsObj).Name, exprString(p, s.LhsIdx), exprString(p, s.Rhs))
		case LDeref:
			return fmt.Sprintf("*(%s) = %s", exprString(p, s.LhsAddr), exprString(p, s.Rhs))
		}
	case OpDeclArr:
		return fmt.Sprintf("declare %s[%d]", p.Obj(s.Obj).Name, p.Obj(s.Obj).Size)
	case OpCond:
		return fmt.Sprintf("if %s", exprString(p, s.Rhs))
	case OpCall:
		args := make([]string, len(s.Args))
		for i, a := range s.Args {
			args[i] = exprString(p, a)
		}
		return fmt.Sprintf("call %s(%s)", s.Callee.Name, strings.Join(args, ", "))
	case OpReturn:
		if s.Rhs == nil {
			return "return"
		}
		return fmt.Sprintf("return %s", exprString(p, s.Rhs))
	case OpPrint:
		return fmt.Sprintf("print %s", exprString(p, s.Rhs))
	}
	return "?"
}

func exprString(p *Program, e Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *EConst:
		return fmt.Sprintf("%d", x.Val)
	case *ELoad:
		return p.Obj(x.Obj).Name
	case *ELoadIdx:
		return fmt.Sprintf("%s[%s]", p.Obj(x.Obj).Name, exprString(p, x.Idx))
	case *ELoadPtr:
		return fmt.Sprintf("*(%s)", exprString(p, x.Addr))
	case *EAddr:
		if x.Idx == nil {
			return "&" + p.Obj(x.Obj).Name
		}
		return fmt.Sprintf("&%s[%s]", p.Obj(x.Obj).Name, exprString(p, x.Idx))
	case *EUnary:
		return fmt.Sprintf("%s(%s)", x.Op, exprString(p, x.X))
	case *EBinary:
		return fmt.Sprintf("(%s %s %s)", exprString(p, x.X), x.Op, exprString(p, x.Y))
	case *EInput:
		return "input()"
	}
	return "?"
}
