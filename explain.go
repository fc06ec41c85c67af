package slicer

// Slice provenance: observed queries. ExplainAddr/ExplainVar run the
// same traversal as SliceAddr/SliceVar with an explain.Recorder
// attached, returning the slice together with a per-query traversal
// profile (nodes visited, label probes, explicit/inferred/shortcut edge
// attribution per optimization family) and the ability to reconstruct a
// dependence-path witness — the concrete chain
// criterion ← dep ← … ← stmt — for any statement in the slice. See
// docs/EXPLAIN.md.

import (
	"fmt"
	"strings"

	"dynslice/internal/ir"
	"dynslice/internal/slicing/explain"
	"dynslice/internal/telemetry/querylog"
)

// Explanation is the result of an observed slicing query: the slice, a
// traversal profile, and the recorded provenance from which witnesses
// are reconstructed.
type Explanation struct {
	Slice   *Slice
	Profile *explain.Profile

	rec  *explain.Recorder
	prog *ir.Program
}

// ExplainAddr slices on the last definition of addr with provenance
// recording. The slice is identical to SliceAddr's; the returned
// Explanation additionally carries the traversal profile and witnesses.
// Fails for algorithms that do not implement slicing.Explainer.
func (s *Slicer) ExplainAddr(addr int64) (*Explanation, error) {
	if _, err := s.explainer(); err != nil {
		return nil, err
	}
	_, ex, err := s.direct(querylog.KindExplain, []int64{addr})
	return ex, err
}

// ExplainVar is ExplainAddr on the last definition of a global scalar.
func (s *Slicer) ExplainVar(name string) (*Explanation, error) {
	addr, err := s.rec.p.GlobalAddr(name)
	if err != nil {
		return nil, err
	}
	return s.ExplainAddr(addr)
}

// Recorder exposes the raw per-query recorder (for validation tooling).
func (e *Explanation) Recorder() *explain.Recorder { return e.rec }

// Witness returns the dependence-path witness for a statement in the
// slice (false when the statement is not a slice member).
func (e *Explanation) Witness(id ir.StmtID) (*explain.Witness, bool) {
	if !e.Slice.raw.Has(id) {
		return nil, false
	}
	return e.rec.Witness(id)
}

// WitnessAtLine returns a witness for the first slice statement on the
// given source line (false when the line has none).
func (e *Explanation) WitnessAtLine(line int) (*explain.Witness, bool) {
	for _, id := range e.Slice.raw.Stmts() {
		if e.prog.Stmt(id).Pos.Line != line {
			continue
		}
		if w, ok := e.rec.Witness(id); ok {
			return w, true
		}
	}
	return nil, false
}

// FormatWitness renders a witness chain for terminal output, one hop per
// line from the criterion down to the target, each tagged with its
// dependence type (data/ctrl/use/shortcut) and resolution kind.
func (e *Explanation) FormatWitness(w *explain.Witness) string {
	var b strings.Builder
	tgt := e.prog.Stmt(w.Target)
	fmt.Fprintf(&b, "witness for s%d (%s %s):\n", w.Target, tgt.Pos, tgt.Op)
	if root, ok := e.rec.Root(); ok {
		rs := e.prog.Stmt(root.Stmt)
		fmt.Fprintf(&b, "  s%d@t%d (%s %s)  [criterion]\n", root.Stmt, root.TS, rs.Pos, rs.Op)
	}
	for _, h := range w.Hops {
		dep := "data"
		switch {
		case h.CD:
			dep = "ctrl"
		case h.Kind == explain.KindShortcut:
			dep = "chain"
		case h.ToUse:
			dep = "use"
		}
		ts := e.prog.Stmt(h.ToStmt)
		fmt.Fprintf(&b, "  <- %-5s %-17s s%d@t%d (%s %s)", dep, h.Kind, h.ToStmt, h.ToTS, ts.Pos, ts.Op)
		if h.ToUse {
			fmt.Fprintf(&b, " [use slot %d]", h.ToSlot)
		}
		b.WriteString("\n")
	}
	if !w.Complete {
		b.WriteString("  (incomplete: chain did not reach the criterion)\n")
	}
	return b.String()
}
