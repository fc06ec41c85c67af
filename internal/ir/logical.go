package ir

// Logical blocks. The lowerer terminates physical basic blocks at call
// statements so that trace records stay positionally decodable, but the
// paper's model (Trimaran) keeps calls in the middle of blocks. A
// *logical block* recovers that view: a chain
//
//	head -> continuation -> continuation -> ...
//
// where every link is a call-terminated block followed by its unique
// continuation. The OPT graph assigns one node (and one timestamp per
// execution) to each logical block, exactly as the paper assigns one
// timestamp per basic-block execution.

// IsCallBlock reports whether b's terminator is a call.
func (b *Block) IsCallBlock() bool {
	t := b.Terminator()
	return t != nil && t.Op == OpCall
}

// IsContinuation reports whether b is the continuation of a call: its only
// predecessor ends in a call. Continuations never execute standalone.
func (b *Block) IsContinuation() bool {
	return len(b.Preds) == 1 && b.Preds[0].IsCallBlock()
}

// LogicalChain returns the logical block starting at head: head followed
// by its continuation chain. head must not itself be a continuation.
func LogicalChain(head *Block) []*Block {
	chain := []*Block{head}
	for chain[len(chain)-1].IsCallBlock() {
		next := chain[len(chain)-1].Succs[0]
		chain = append(chain, next)
	}
	return chain
}
