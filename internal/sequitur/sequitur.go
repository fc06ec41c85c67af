// Package sequitur implements the SEQUITUR online grammar-inference
// algorithm (Nevill-Manning & Witten, DCC'97), which the paper uses as the
// compression baseline for dependence-graph labeling information (§4.1:
// SEQUITUR compressed their dyDGs 9.18x on average versus 23.4x for the
// OPT representation).
//
// SEQUITUR incrementally builds a context-free grammar for an input
// sequence while maintaining two invariants: digram uniqueness (no pair of
// adjacent symbols occurs more than once in the grammar) and rule utility
// (every rule is used more than once).
package sequitur

// Symbol values: terminals are the caller's non-negative int64 values;
// rule references are encoded internally.

type symbol struct {
	prev, next *symbol
	value      int64 // terminal value
	rule       *rule // non-nil for rule references and guards
	isGuard    bool
}

type rule struct {
	guard *symbol // sentinel of the circular symbol list
	uses  int
	id    int
}

// Grammar is the inferred grammar.
type Grammar struct {
	start   *rule
	digrams map[[2]int64]*symbol
	nextID  int
}

// New returns an empty grammar.
func New() *Grammar {
	g := &Grammar{digrams: map[[2]int64]*symbol{}}
	g.start = g.newRule()
	return g
}

func (g *Grammar) newRule() *rule {
	r := &rule{id: g.nextID}
	g.nextID++
	guard := &symbol{rule: r, isGuard: true}
	guard.prev = guard
	guard.next = guard
	r.guard = guard
	return r
}

// key returns the digram key of s and s.next. Rule references are mapped
// to negative keys distinct from terminals.
func key(s *symbol) [2]int64 {
	return [2]int64{symKey(s), symKey(s.next)}
}

func symKey(s *symbol) int64 {
	if s.rule != nil && !s.isGuard {
		return -int64(s.rule.id) - 1
	}
	return s.value
}

func join(left, right *symbol) {
	left.next = right
	right.prev = left
}

// insertAfter places a fresh symbol after prev.
func insertAfter(prev *symbol, s *symbol) {
	join(s, prev.next)
	join(prev, s)
}

// Append adds the next terminal of the input sequence.
func (g *Grammar) Append(v int64) {
	s := &symbol{value: v}
	last := g.start.guard.prev
	insertAfter(last, s)
	if !last.isGuard {
		g.check(last)
	}
}

// check restores digram uniqueness for the digram starting at s. Returns
// true if the grammar changed.
func (g *Grammar) check(s *symbol) bool {
	if s.isGuard || s.next.isGuard {
		return false
	}
	k := key(s)
	match, ok := g.digrams[k]
	if !ok {
		g.digrams[k] = s
		return false
	}
	if match == s || match.next == s {
		// Overlapping occurrence (aaa): leave as is.
		return false
	}
	g.processMatch(s, match)
	return true
}

// processMatch handles a repeated digram: reuse an existing whole rule or
// create a new one.
func (g *Grammar) processMatch(s, match *symbol) {
	// If the match is the complete body of a rule, substitute that rule.
	if match.prev.isGuard && match.next.next.isGuard {
		r := match.prev.rule
		g.substitute(s, r)
		return
	}
	// Otherwise create a new rule for the digram.
	r := g.newRule()
	a := &symbol{value: s.value, rule: s.rule, isGuard: false}
	a.rule = s.rule
	a.value = s.value
	b := &symbol{value: s.next.value, rule: s.next.rule}
	insertAfter(r.guard, a)
	insertAfter(a, b)
	if a.rule != nil {
		a.rule.uses++
	}
	if b.rule != nil {
		b.rule.uses++
	}
	g.digrams[key(a)] = a

	// Replace both occurrences. Replace match first so stale digram index
	// entries are removed before s shifts.
	g.substitute(match, r)
	g.substitute(s, r)
	g.enforceUtility(r)
}

// substitute replaces the digram starting at s with a reference to r.
func (g *Grammar) substitute(s *symbol, r *rule) {
	prev := s.prev
	g.deleteDigram(prev)
	g.deleteDigram(s)
	g.deleteDigram(s.next)

	a := s
	b := s.next
	if a.rule != nil && !a.isGuard {
		a.rule.uses--
	}
	if b.rule != nil && !b.isGuard {
		b.rule.uses--
	}

	ref := &symbol{rule: r}
	r.uses++
	join(prev, ref)
	join(ref, b.next)

	if !g.check(prev) {
		g.check(ref)
	}
}

// deleteDigram removes the digram starting at s from the index if it is
// the indexed occurrence.
func (g *Grammar) deleteDigram(s *symbol) {
	if s.isGuard || s.next.isGuard {
		return
	}
	k := key(s)
	if g.digrams[k] == s {
		delete(g.digrams, k)
	}
}

// enforceUtility inlines r's referenced rules that dropped to a single use.
func (g *Grammar) enforceUtility(r *rule) {
	for s := r.guard.next; !s.isGuard; s = s.next {
		if s.rule != nil && s.rule.uses == 1 {
			g.inline(s)
			return
		}
	}
}

// inline expands the single remaining reference to a rule.
func (g *Grammar) inline(ref *symbol) {
	r := ref.rule
	prev := ref.prev
	next := ref.next
	g.deleteDigram(prev)
	g.deleteDigram(ref)

	first := r.guard.next
	last := r.guard.prev
	if first.isGuard {
		// Empty rule; just remove the reference.
		join(prev, next)
	} else {
		join(prev, first)
		join(last, next)
	}
	g.check(prev)
	if !last.isGuard {
		g.check(last)
	}
}

// Size returns the grammar size: the total number of symbols on the right-
// hand sides of all rules (the standard SEQUITUR compression measure).
func (g *Grammar) Size() int {
	n := 0
	seen := map[*rule]bool{}
	var count func(r *rule)
	count = func(r *rule) {
		if seen[r] {
			return
		}
		seen[r] = true
		for s := r.guard.next; !s.isGuard; s = s.next {
			n++
			if s.rule != nil {
				count(s.rule)
			}
		}
	}
	count(g.start)
	return n
}

// Expand reconstructs the original sequence (for testing).
func (g *Grammar) Expand() []int64 {
	var out []int64
	var walk func(r *rule)
	walk = func(r *rule) {
		for s := r.guard.next; !s.isGuard; s = s.next {
			if s.rule != nil {
				walk(s.rule)
			} else {
				out = append(out, s.value)
			}
		}
	}
	walk(g.start)
	return out
}

// Compress is a convenience: infer a grammar for seq and report the input
// length, grammar size, and compression ratio.
func Compress(seq []int64) (in, out int, ratio float64) {
	g := New()
	for _, v := range seq {
		g.Append(v)
	}
	in = len(seq)
	out = g.Size()
	if out == 0 {
		return in, out, 1
	}
	return in, out, float64(in) / float64(out)
}
