// Graph snapshot codec: the compacted graph serialized for the
// single-read on-disk graph image (internal/slicing/snapshot).
//
// Only the dynamic component is persisted — the timestamp counter, the
// last-definition table, the label registry (sealed block lists land in
// queryable form on load, no per-label decode), the dynamic edge vectors,
// and the adopted adaptive default rules. The static component (nodes,
// static edges, clusters, shortcuts) is a deterministic function of the
// IR, the configuration, and the specialized path set, so the loader
// reruns NewGraph and only validates that the rebuilt structure matches
// the snapshot's shape. Dynamic edges reference labels by registry id —
// never by recomputed cluster numbering, which Go map iteration makes
// unstable across processes.
//
// Hybrid (§4.2 disk-epoch) graphs are not snapshottable: their labels
// live partly in epoch files keyed to a directory that outlives no
// process. Warm adaptive rules collapse to DefDead — at query time
// neither resolves, so loaded graphs answer exactly like their source.
package opt

import (
	"encoding/binary"
	"slices"
	"sort"

	"dynslice/internal/ir"
	"dynslice/internal/profile"
	"dynslice/internal/slicing/labelblock"
)

func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }
func unzig(u uint64) int64  { return int64(u>>1) ^ -int64(u&1) }

// Config bit layout for the snapshot encoding (and the cache-key
// fingerprint; see Config.Fingerprint).
const (
	cfgLocalDefUse = 1 << iota
	cfgUseUse
	cfgPathSpec
	cfgShareData
	cfgInferCD
	cfgSpecCD
	cfgShareCDData
	cfgShortcuts
	cfgAdaptiveDeltas
)

func (c Config) bits() uint64 {
	var b uint64
	set := func(on bool, bit uint64) {
		if on {
			b |= bit
		}
	}
	set(c.LocalDefUse, cfgLocalDefUse)
	set(c.UseUse, cfgUseUse)
	set(c.PathSpec, cfgPathSpec)
	set(c.ShareData, cfgShareData)
	set(c.InferCD, cfgInferCD)
	set(c.SpecCD, cfgSpecCD)
	set(c.ShareCDData, cfgShareCDData)
	set(c.Shortcuts, cfgShortcuts)
	set(c.AdaptiveDeltas, cfgAdaptiveDeltas)
	return b
}

func configFromBits(b uint64) Config {
	return Config{
		LocalDefUse:    b&cfgLocalDefUse != 0,
		UseUse:         b&cfgUseUse != 0,
		PathSpec:       b&cfgPathSpec != 0,
		ShareData:      b&cfgShareData != 0,
		InferCD:        b&cfgInferCD != 0,
		SpecCD:         b&cfgSpecCD != 0,
		ShareCDData:    b&cfgShareCDData != 0,
		Shortcuts:      b&cfgShortcuts != 0,
		AdaptiveDeltas: b&cfgAdaptiveDeltas != 0,
	}
}

// AppendSnapshot serializes the frozen graph (call after Finalize). The
// encoding is deterministic — map-backed state is emitted sorted — so
// identical graphs produce identical bytes. dst grows once, to the
// graph's own bound on the section: the encoded dynamic component never
// exceeds the resident graph, and a table slot costs at most a timestamp
// and a location. Hybrid graphs refuse: their labels live partly in disk
// epoch files.
func (g *Graph) AppendSnapshot(dst []byte) ([]byte, error) {
	if g.hybrid != nil {
		return nil, labelblock.Corrupt(labelblock.ClassBadBlock, "opt: hybrid graphs are not snapshottable")
	}
	maxStmts := 0
	for _, n := range g.nodes {
		maxStmts = max(maxStmts, len(n.Stmts))
	}
	slot := labelblock.UvarintLen(uint64(g.ts)) + labelblock.UvarintLen(uint64(len(g.nodes))) + labelblock.UvarintLen(uint64(maxStmts))
	dst = slices.Grow(dst, int(g.ResidentBytes())+len(g.lastDef)*slot+64)
	dst = binary.AppendUvarint(dst, g.cfg.bits())

	// Specialized path set, as block-ID sequences in node order: NewGraph
	// assigns path node IDs in iteration order over this list, so the
	// rebuilt node numbering matches the serialized dynamic edges.
	paths := g.pathSeqs()
	dst = binary.AppendUvarint(dst, uint64(len(paths)))
	for _, seq := range paths {
		dst = binary.AppendUvarint(dst, uint64(len(seq)))
		for _, b := range seq {
			dst = binary.AppendUvarint(dst, uint64(b.ID))
		}
	}

	dst = binary.AppendUvarint(dst, uint64(g.ts))

	// Last-definition table, dense: the slot count, then per address its
	// timestamp plus one (0: never defined) and, when defined, the
	// statement copy.
	dst = binary.AppendUvarint(dst, uint64(len(g.lastDef)))
	for i := range g.lastDef {
		d := &g.lastDef[i]
		dst = binary.AppendUvarint(dst, uint64(d.ts1))
		if d.ts1 != 0 {
			dst = appendLoc(dst, d.loc)
		}
	}

	// Label registry, in id order.
	dst = binary.AppendUvarint(dst, uint64(len(g.allLabels)))
	for _, l := range g.allLabels {
		var fl byte
		if l.shared {
			fl |= 1
		}
		if l.isCD {
			fl |= 2
		}
		dst = append(dst, fl)
		dst = labelblock.AppendList(dst, &l.list)
	}

	// Dynamic edges and adopted default rules, per node.
	dst = binary.AppendUvarint(dst, uint64(len(g.nodes)))
	for _, n := range g.nodes {
		dst = binary.AppendUvarint(dst, uint64(len(n.UseSets)))
		for k := range n.UseSets {
			us := &n.UseSets[k]
			dst = binary.AppendUvarint(dst, uint64(len(us.Dyn)))
			for i := range us.Dyn {
				dst = appendLoc(dst, us.Dyn[i].Tgt)
				dst = binary.AppendUvarint(dst, uint64(us.Dyn[i].L.id))
			}
			dst = appendDefault(dst, &us.Default)
		}
		dst = binary.AppendUvarint(dst, uint64(len(n.Occs)))
		for i := range n.Occs {
			cd := &n.Occs[i].CD
			dst = binary.AppendUvarint(dst, uint64(len(cd.Dyn)))
			for j := range cd.Dyn {
				dst = appendLoc(dst, cd.Dyn[j].Tgt)
				dst = binary.AppendUvarint(dst, uint64(cd.Dyn[j].L.id))
			}
			dst = appendDefault(dst, &cd.Default)
		}
	}

	dst = binary.AppendUvarint(dst, uint64(g.adaptiveData))
	dst = binary.AppendUvarint(dst, uint64(g.adaptiveCD))
	for _, v := range g.elim.fields() {
		dst = binary.AppendUvarint(dst, uint64(*v))
	}
	return dst, nil
}

// pathSeqs returns the specialized path block sequences in node-ID order.
func (g *Graph) pathSeqs() [][]*ir.Block {
	type pathNode struct {
		id  NodeID
		seq []*ir.Block
	}
	ps := make([]pathNode, 0, len(g.pathByKey))
	for _, id := range g.pathByKey {
		n := g.nodes[id]
		seq := make([]*ir.Block, len(n.Occs))
		for i := range n.Occs {
			seq[i] = n.Occs[i].B
		}
		ps = append(ps, pathNode{id: id, seq: seq})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].id < ps[j].id })
	out := make([][]*ir.Block, len(ps))
	for i := range ps {
		out[i] = ps[i].seq
	}
	return out
}

func appendLoc(dst []byte, loc InstLoc) []byte {
	dst = binary.AppendUvarint(dst, uint64(loc.Node))
	return binary.AppendUvarint(dst, uint64(loc.Stmt))
}

// appendDefault serializes an adaptive default rule. A still-warming rule
// has adopted nothing a loaded graph could use, so it collapses to
// DefDead — Resolve declines either way, keeping loaded-graph slices
// identical to the source graph's.
func appendDefault(dst []byte, d *DefaultEdge) []byte {
	mode := d.Mode
	if mode == DefWarm {
		mode = DefDead
	}
	dst = append(dst, byte(mode))
	dst = appendLoc(dst, d.Tgt)
	return binary.AppendUvarint(dst, zigzag(d.Val))
}

// LoadSnapshot reconstructs a frozen graph from AppendSnapshot bytes:
// the static component is rebuilt with NewGraph from the IR plus the
// serialized path set, then the dynamic component is attached, with the
// rebuilt structure validated against the snapshot's shape at every
// level. Sealed block payloads alias data; the caller keeps the snapshot
// buffer reachable for the graph's lifetime. Errors are classified
// *labelblock.CorruptError values.
func LoadSnapshot(p *ir.Program, data []byte) (*Graph, error) {
	bits, data, err := snapUvarint(data, "config bits")
	if err != nil {
		return nil, err
	}
	if bits >= cfgAdaptiveDeltas<<1 {
		return nil, labelblock.Corrupt(labelblock.ClassBadBlock, "opt: unknown config bits %#x", bits)
	}
	cfg := configFromBits(bits)

	nPaths, data, err := snapUvarint(data, "path count")
	if err != nil {
		return nil, err
	}
	if nPaths > uint64(len(p.Blocks))*1024 {
		return nil, labelblock.Corrupt(labelblock.ClassBadBlock, "opt: implausible path count %d", nPaths)
	}
	paths := make([]*profile.PathProfile, 0, nPaths)
	for i := uint64(0); i < nPaths; i++ {
		var nSeq uint64
		if nSeq, data, err = snapUvarint(data, "path length"); err != nil {
			return nil, err
		}
		if nSeq < 2 || nSeq > uint64(len(p.Blocks))*64 {
			return nil, labelblock.Corrupt(labelblock.ClassBadBlock, "opt: implausible path length %d", nSeq)
		}
		seq := make([]*ir.Block, nSeq)
		for j := range seq {
			var bid uint64
			if bid, data, err = snapUvarint(data, "path block id"); err != nil {
				return nil, err
			}
			if bid >= uint64(len(p.Blocks)) {
				return nil, labelblock.Corrupt(labelblock.ClassBadBlock, "opt: path block id %d out of range", bid)
			}
			seq[j] = p.Blocks[bid]
		}
		paths = append(paths, &profile.PathProfile{Fn: seq[0].Fn, Seq: seq, Key: profile.SeqKey(seq)})
	}

	g := NewGraph(p, cfg, paths, nil)
	if len(g.allLabels) != 0 {
		return nil, labelblock.Corrupt(labelblock.ClassBadBlock, "opt: fresh static graph has labels")
	}
	if cfg.PathSpec && len(g.pathByKey) != len(paths) {
		// A duplicate or non-path sequence collapsed: the node numbering
		// would not match the serialized dynamic edges.
		return nil, labelblock.Corrupt(labelblock.ClassBadBlock,
			"opt: %d serialized paths rebuilt %d path nodes", len(paths), len(g.pathByKey))
	}

	ts, data, err := snapUvarint(data, "timestamp counter")
	if err != nil {
		return nil, err
	}
	g.ts = int64(ts)

	nDefs, data, err := snapUvarint(data, "lastDef slot count")
	if err != nil {
		return nil, err
	}
	if nDefs > uint64(len(data)) {
		// Every slot costs at least one byte; reject before allocating.
		return nil, labelblock.Corrupt(labelblock.ClassTruncated, "opt: lastDef slot count %d exceeds remaining data", nDefs)
	}
	g.lastDef = make([]defSlot, nDefs)
	for a := range g.lastDef {
		var ts1 uint64
		if ts1, data, err = snapUvarint(data, "lastDef ts"); err != nil {
			return nil, err
		}
		if ts1 == 0 {
			continue
		}
		if ts1 > ts {
			return nil, labelblock.Corrupt(labelblock.ClassBadBlock, "opt: lastDef ts %d out of range", ts1-1)
		}
		d := &g.lastDef[a]
		d.ts1 = int64(ts1)
		if d.loc, data, err = g.decodeLoc(data, "lastDef"); err != nil {
			return nil, err
		}
	}

	nLabels, data, err := snapUvarint(data, "label count")
	if err != nil {
		return nil, err
	}
	if nLabels > 1<<28 {
		return nil, labelblock.Corrupt(labelblock.ClassBadBlock, "opt: implausible label count %d", nLabels)
	}
	for i := uint64(0); i < nLabels; i++ {
		if len(data) == 0 {
			return nil, labelblock.Corrupt(labelblock.ClassTruncated, "opt: data ends inside label flags")
		}
		fl := data[0]
		data = data[1:]
		if fl&^3 != 0 {
			return nil, labelblock.Corrupt(labelblock.ClassBadBlock, "opt: unknown label flags %#x", fl)
		}
		l := g.newLabels(fl&1 != 0, fl&2 != 0)
		if l.list, data, err = labelblock.DecodeList(data); err != nil {
			return nil, err
		}
	}

	nNodes, data, err := snapUvarint(data, "node count")
	if err != nil {
		return nil, err
	}
	if nNodes != uint64(len(g.nodes)) {
		return nil, labelblock.Corrupt(labelblock.ClassBadBlock,
			"opt: snapshot has %d nodes, rebuilt graph has %d", nNodes, len(g.nodes))
	}
	for _, n := range g.nodes {
		var nUS uint64
		if nUS, data, err = snapUvarint(data, "use set count"); err != nil {
			return nil, err
		}
		if nUS != uint64(len(n.UseSets)) {
			return nil, labelblock.Corrupt(labelblock.ClassBadBlock,
				"opt: node %d has %d use sets, snapshot has %d", n.ID, len(n.UseSets), nUS)
		}
		for k := range n.UseSets {
			us := &n.UseSets[k]
			var nDyn uint64
			if nDyn, data, err = snapUvarint(data, "dyn edge count"); err != nil {
				return nil, err
			}
			if nDyn > uint64(len(data))/minDynEdgeBytes {
				return nil, labelblock.Corrupt(labelblock.ClassTruncated, "opt: dyn edge count %d exceeds remaining data", nDyn)
			}
			if nDyn > 0 {
				us.Dyn = make([]DynEdge, nDyn)
				for i := range us.Dyn {
					if us.Dyn[i].Tgt, data, err = g.decodeLoc(data, "dyn edge"); err != nil {
						return nil, err
					}
					if us.Dyn[i].L, data, err = g.decodeLabelRef(data); err != nil {
						return nil, err
					}
				}
			}
			if data, err = g.decodeDefault(data, &us.Default); err != nil {
				return nil, err
			}
		}
		var nOccs uint64
		if nOccs, data, err = snapUvarint(data, "occurrence count"); err != nil {
			return nil, err
		}
		if nOccs != uint64(len(n.Occs)) {
			return nil, labelblock.Corrupt(labelblock.ClassBadBlock,
				"opt: node %d has %d occurrences, snapshot has %d", n.ID, len(n.Occs), nOccs)
		}
		for i := range n.Occs {
			cd := &n.Occs[i].CD
			var nDyn uint64
			if nDyn, data, err = snapUvarint(data, "cd dyn edge count"); err != nil {
				return nil, err
			}
			if nDyn > uint64(len(data))/minDynEdgeBytes {
				return nil, labelblock.Corrupt(labelblock.ClassTruncated, "opt: cd dyn edge count %d exceeds remaining data", nDyn)
			}
			if nDyn > 0 {
				cd.Dyn = make([]CDDynEdge, nDyn)
				for j := range cd.Dyn {
					if cd.Dyn[j].Tgt, data, err = g.decodeLoc(data, "cd dyn edge"); err != nil {
						return nil, err
					}
					if cd.Dyn[j].L, data, err = g.decodeLabelRef(data); err != nil {
						return nil, err
					}
				}
			}
			if data, err = g.decodeDefault(data, &cd.Default); err != nil {
				return nil, err
			}
		}
	}

	ad, data, err := snapUvarint(data, "adaptive data count")
	if err != nil {
		return nil, err
	}
	ac, data, err := snapUvarint(data, "adaptive cd count")
	if err != nil {
		return nil, err
	}
	g.adaptiveData, g.adaptiveCD = int64(ad), int64(ac)
	for _, v := range g.elim.fields() {
		var e uint64
		if e, data, err = snapUvarint(data, "elim counter"); err != nil {
			return nil, err
		}
		*v = int64(e)
	}
	if len(data) != 0 {
		return nil, labelblock.Corrupt(labelblock.ClassBadBlock, "opt: %d trailing bytes after snapshot", len(data))
	}
	return g, nil
}

// minDynEdgeBytes is the smallest encoded dynamic edge: a target
// location and a label id, one-byte varints each.
const minDynEdgeBytes = 3

// decodeLoc reads and range-checks an InstLoc.
func (g *Graph) decodeLoc(data []byte, what string) (InstLoc, []byte, error) {
	node, data, err := snapUvarint(data, what)
	if err != nil {
		return InstLoc{}, nil, err
	}
	st, data, err := snapUvarint(data, what)
	if err != nil {
		return InstLoc{}, nil, err
	}
	if node >= uint64(len(g.nodes)) {
		return InstLoc{}, nil, labelblock.Corrupt(labelblock.ClassBadBlock, "opt: %s node %d out of range", what, node)
	}
	if st >= uint64(len(g.nodes[node].Stmts)) {
		return InstLoc{}, nil, labelblock.Corrupt(labelblock.ClassBadBlock, "opt: %s stmt %d out of range", what, st)
	}
	return InstLoc{Node: NodeID(node), Stmt: int32(st)}, data, nil
}

// decodeLabelRef reads a label registry id and resolves it.
func (g *Graph) decodeLabelRef(data []byte) (*Labels, []byte, error) {
	id, data, err := snapUvarint(data, "label id")
	if err != nil {
		return nil, nil, err
	}
	if id >= uint64(len(g.allLabels)) {
		return nil, nil, labelblock.Corrupt(labelblock.ClassBadBlock, "opt: label id %d out of range", id)
	}
	return g.allLabels[id], data, nil
}

// decodeDefault reads an adaptive default rule.
func (g *Graph) decodeDefault(data []byte, d *DefaultEdge) ([]byte, error) {
	if len(data) == 0 {
		return nil, labelblock.Corrupt(labelblock.ClassTruncated, "opt: data ends inside default mode")
	}
	mode := DefaultMode(data[0])
	data = data[1:]
	if mode == DefWarm || mode > DefDead {
		return nil, labelblock.Corrupt(labelblock.ClassBadBlock, "opt: invalid default mode %d", mode)
	}
	loc, data, err := g.decodeLoc(data, "default")
	if err != nil {
		return nil, err
	}
	val, data, err := snapUvarint(data, "default value")
	if err != nil {
		return nil, err
	}
	d.Mode, d.Tgt, d.Val, d.warm = mode, loc, unzig(val), nil
	return data, nil
}

// fields lists every Elim counter, in serialization order.
func (e *Elim) fields() []*int64 {
	return []*int64{
		&e.UseSlots, &e.OPT1DU, &e.OPT2UU, &e.AdaptiveData, &e.NoProducer, &e.DataLabels,
		&e.CDExecs, &e.OPT4Delta, &e.OPT5Local, &e.OPT5Same, &e.AdaptiveCD, &e.NoAncestor, &e.CDLabels,
		&e.OPT3Dedup, &e.OPT6Dedup,
	}
}

// snapUvarint decodes one uvarint with an inline fast path: the error
// context string is only materialized on failure — building "opt: "+what
// eagerly costs a concat + alloc per field and dominated load time.
func snapUvarint(data []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n > 0 {
		return v, data[n:], nil
	}
	if n == 0 {
		return 0, nil, labelblock.Corrupt(labelblock.ClassTruncated, "opt: data ends inside %s", what)
	}
	return 0, nil, labelblock.Corrupt(labelblock.ClassBadBlock, "opt: varint overflow in %s", what)
}
