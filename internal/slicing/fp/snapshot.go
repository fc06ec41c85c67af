// Graph snapshot codec: the frozen FP graph's queryable state — block
// ordinal counter, last-definition table, and the columnar label lists —
// serialized for the single-read on-disk graph image
// (internal/slicing/snapshot). Builder-only state (frames, arena free
// lists) is not persisted; a loaded graph is frozen and answers queries
// exactly like the graph it was saved from.
package fp

import (
	"encoding/binary"
	"slices"

	"dynslice/internal/ir"
	"dynslice/internal/slicing/labelblock"
)

// AppendSnapshot serializes the frozen graph (call after End). The
// encoding is deterministic, so identical graphs produce identical bytes
// (the golden-snapshot format guard relies on this). dst grows once, to
// the graph's own bound on the section: encoded label lists never exceed
// their resident bytes, and a table slot costs at most an ordinal and a
// statement varint.
func (g *Graph) AppendSnapshot(dst []byte) []byte {
	slot := labelblock.UvarintLen(uint64(g.ts)) + labelblock.UvarintLen(uint64(len(g.p.Stmts)))
	dst = slices.Grow(dst, int(g.ResidentBytes())+len(g.defTs)*slot+64)
	dst = binary.AppendUvarint(dst, uint64(g.ts))
	dst = binary.AppendUvarint(dst, uint64(g.dataPairs))
	dst = binary.AppendUvarint(dst, uint64(g.cdPairs))

	// Last-definition table, dense: the slot count, then per address its
	// ordinal plus one (0: never defined) and, when defined, the
	// statement.
	dst = binary.AppendUvarint(dst, uint64(len(g.defTs)))
	for a, ts1 := range g.defTs {
		dst = binary.AppendUvarint(dst, uint64(ts1))
		if ts1 != 0 {
			dst = binary.AppendUvarint(dst, uint64(g.defStmt[a]))
		}
	}

	// Columnar label lists: per statement its use-slot lists (0 slots =
	// statement never executed), then per block its control list.
	dst = binary.AppendUvarint(dst, uint64(len(g.useEdges)))
	for _, slots := range g.useEdges {
		dst = binary.AppendUvarint(dst, uint64(len(slots)))
		for i := range slots {
			dst = labelblock.AppendList(dst, &slots[i])
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(g.cdEdges)))
	for i := range g.cdEdges {
		dst = labelblock.AppendList(dst, &g.cdEdges[i])
	}
	return dst
}

// LoadSnapshot reconstructs a frozen graph from AppendSnapshot bytes.
// Sealed block payloads alias data — the caller keeps the snapshot buffer
// reachable for the graph's lifetime — so loading does no per-label
// decode. Errors are classified *labelblock.CorruptError values.
func LoadSnapshot(p *ir.Program, data []byte) (*Graph, error) {
	g := &Graph{
		p:       p,
		slotOff: useSlotOffsets(p),
		mem:     labelblock.NewArena(),
	}
	var ts, dp, cp uint64
	var err error
	if ts, data, err = snapUvarint(data, "timestamp counter"); err != nil {
		return nil, err
	}
	if dp, data, err = snapUvarint(data, "data pair count"); err != nil {
		return nil, err
	}
	if cp, data, err = snapUvarint(data, "cd pair count"); err != nil {
		return nil, err
	}
	g.ts = int64(ts)
	g.dataPairs = int64(dp)
	g.cdPairs = int64(cp)

	nDefs, data, err := snapUvarint(data, "lastDef slot count")
	if err != nil {
		return nil, err
	}
	if nDefs > uint64(len(data)) {
		// Every slot costs at least one byte; reject before allocating.
		return nil, labelblock.Corrupt(labelblock.ClassTruncated, "fp: lastDef slot count %d exceeds remaining data", nDefs)
	}
	g.defTs = make([]int64, nDefs)
	g.defStmt = make([]int32, nDefs)
	for a := range g.defTs {
		var ts1, st uint64
		if ts1, data, err = snapUvarint(data, "lastDef ts"); err != nil {
			return nil, err
		}
		if ts1 == 0 {
			continue
		}
		if st, data, err = snapUvarint(data, "lastDef stmt"); err != nil {
			return nil, err
		}
		if ts1 > ts || st >= uint64(len(p.Stmts)) {
			return nil, labelblock.Corrupt(labelblock.ClassBadBlock, "fp: lastDef (ts %d, stmt %d) out of range", ts1-1, st)
		}
		g.defTs[a] = int64(ts1)
		g.defStmt[a] = int32(st)
	}

	nStmts, data, err := snapUvarint(data, "useEdges length")
	if err != nil {
		return nil, err
	}
	if nStmts != uint64(len(p.Stmts)) {
		return nil, labelblock.Corrupt(labelblock.ClassBadBlock,
			"fp: snapshot has %d statements, program has %d", nStmts, len(p.Stmts))
	}
	g.useEdges = make([][]labelblock.List, nStmts)
	for si := range g.useEdges {
		var nSlots uint64
		if nSlots, data, err = snapUvarint(data, "use slot count"); err != nil {
			return nil, err
		}
		if nSlots == 0 {
			continue
		}
		if nSlots != uint64(len(p.Stmts[si].Uses)) {
			return nil, labelblock.Corrupt(labelblock.ClassBadBlock,
				"fp: statement %d has %d use slots, snapshot has %d", si, len(p.Stmts[si].Uses), nSlots)
		}
		slots := make([]labelblock.List, nSlots)
		for i := range slots {
			if slots[i], data, err = labelblock.DecodeList(data); err != nil {
				return nil, err
			}
		}
		g.useEdges[si] = slots
	}
	nBlocks, data, err := snapUvarint(data, "cdEdges length")
	if err != nil {
		return nil, err
	}
	if nBlocks != uint64(len(p.Blocks)) {
		return nil, labelblock.Corrupt(labelblock.ClassBadBlock,
			"fp: snapshot has %d blocks, program has %d", nBlocks, len(p.Blocks))
	}
	g.cdEdges = make([]labelblock.List, nBlocks)
	for i := range g.cdEdges {
		if g.cdEdges[i], data, err = labelblock.DecodeList(data); err != nil {
			return nil, err
		}
	}
	if len(data) != 0 {
		return nil, labelblock.Corrupt(labelblock.ClassBadBlock, "fp: %d trailing bytes after snapshot", len(data))
	}
	return g, nil
}

// snapUvarint decodes one uvarint with an inline fast path: the error
// context string is only materialized on failure — building "fp: "+what
// eagerly costs a concat + alloc per field and dominated load time.
func snapUvarint(data []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n > 0 {
		return v, data[n:], nil
	}
	if n == 0 {
		return 0, nil, labelblock.Corrupt(labelblock.ClassTruncated, "fp: data ends inside %s", what)
	}
	return 0, nil, labelblock.Corrupt(labelblock.ClassBadBlock, "fp: varint overflow in %s", what)
}
