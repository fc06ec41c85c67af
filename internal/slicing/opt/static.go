package opt

import (
	"fmt"

	"dynslice/internal/dataflow"
	"dynslice/internal/ir"
	"dynslice/internal/profile"
	"dynslice/internal/slicing/labelblock"
)

// NewGraph constructs the static component of the compacted graph: one
// standalone node per basic block, one node per specialized path, the
// statically inferable (unlabeled) def-use/use-use/control edges, and the
// label-sharing clusters. Feed the returned graph a trace (it implements
// trace.Sink) and then slice.
//
// paths lists the profiled Ball-Larus paths to specialize (ignored unless
// cfg.PathSpec); cuts must be the same cut predicate used while profiling.
func NewGraph(p *ir.Program, cfg Config, paths []*profile.PathProfile, cuts *profile.Cuts) *Graph {
	g := &Graph{
		p:             p,
		cfg:           cfg,
		blockLoc:      make([]occLoc, len(p.Blocks)),
		pathByKey:     map[string]NodeID{},
		clusterLabels: map[clusterNodeKey]*Labels{},
		clusterIsCD:   map[int32]bool{},
		copies:        map[ir.StmtID][]InstLoc{},
		occCopies:     map[ir.BlockID][]occLoc{},
		cuts:          cuts,
		mem:           labelblock.NewArena(),
	}
	if g.cuts == nil {
		g.cuts = profile.NewCuts(p)
	}

	// Standalone nodes, one per logical block: a call-free block by
	// itself, or a call block with its continuation chain (superblock) —
	// the paper's block model, where calls sit mid-block and the whole
	// block shares one timestamp.
	for _, b := range p.Blocks {
		if b.IsContinuation() {
			continue // part of its head's superblock node
		}
		chain := ir.LogicalChain(b)
		id := g.addNode(false, chain)
		for oi, cb := range chain {
			g.blockLoc[cb.ID] = occLoc{node: id, occ: int32(oi)}
		}
	}
	// Path nodes.
	if cfg.PathSpec {
		for _, pp := range paths {
			key := profile.SeqKey(pp.Seq)
			if _, dup := g.pathByKey[key]; dup {
				continue
			}
			g.pathByKey[key] = g.addNode(true, pp.Seq)
		}
	}

	// Static edges within every node.
	for _, n := range g.nodes {
		g.buildStaticData(n)
		g.buildStaticCD(n)
	}
	g.markResolveTracks()

	if cfg.ShareData || cfg.ShareCDData {
		g.buildClusters()
	}
	return g
}

type occLoc struct {
	node NodeID
	occ  int32
}

func (g *Graph) addNode(isPath bool, blocks []*ir.Block) NodeID {
	id := NodeID(len(g.nodes))
	n := &Node{ID: id, IsPath: isPath}
	for oi, b := range blocks {
		n.Occs = append(n.Occs, Occ{B: b, StmtOff: int32(len(n.Stmts))})
		g.occCopies[b.ID] = append(g.occCopies[b.ID], occLoc{node: id, occ: int32(oi)})
		for _, s := range b.Stmts {
			sc := StmtCopy{S: s, OccIdx: int32(oi), UseOff: int32(len(n.UseSets))}
			for range s.Uses {
				n.UseSets = append(n.UseSets, UseEdgeSet{ClusterID: -1})
			}
			g.copies[s.ID] = append(g.copies[s.ID], InstLoc{Node: id, Stmt: int32(len(n.Stmts))})
			n.Stmts = append(n.Stmts, sc)
		}
	}
	for oi := range n.Occs {
		n.Occs[oi].CD.ClusterID = -1
	}
	g.nodes = append(g.nodes, n)
	return id
}

// buildStaticData installs local def-use (OPT-1a/1b, and OPT-2c inside
// path nodes) and use-use (OPT-2b) edges over the node's straight-line
// statement sequence. Only named-scalar use slots are eligible: array and
// pointer slots read varying addresses, for which static inference is
// unsound.
func (g *Graph) buildStaticData(n *Node) {
	for i := range n.Stmts {
		sc := &n.Stmts[i]
		for k := range sc.S.Uses {
			us := sc.S.Uses[k]
			if !us.Scalar() {
				continue
			}
			slotSet := n.useSet(int32(i), int32(k))
			x := us.Obj
			// Nearest preceding must-def (must-aliases get priority over
			// may-aliases, as in the paper's OPT-1b policy).
			interference := false
			foundDU := false
			for j := i - 1; j >= 0; j-- {
				sj := n.Stmts[j].S
				if sj.MustDef == x {
					sameOcc := n.Stmts[j].OccIdx == sc.OccIdx
					// Cross-occurrence edges are OPT-2c in path nodes but
					// plain OPT-1 in superblock nodes (the paper's blocks
					// contain calls; the call's may-defs make them partial).
					allowed := g.cfg.LocalDefUse
					if !sameOcc && n.IsPath {
						allowed = g.cfg.PathSpec
					}
					if allowed {
						kind := SDU
						if interference {
							kind = SDUPartial
						}
						slotSet.Static = kind
						slotSet.StTgtStmt = int32(j)
						g.staticDU++
						foundDU = true
					}
					break
				}
				if dataflow.MayDefines(sj, x) {
					interference = true
				}
			}
			if foundDU || slotSet.Static != SNone {
				continue
			}
			// No preceding local must-def: try a use-use edge to the
			// nearest preceding use of the same scalar. May-defs between
			// the uses make the edge partial (dynamic fallback labels).
			for j := i - 1; j >= 0; j-- {
				sjc := &n.Stmts[j]
				if sjc.S.MustDef == x {
					break // unreachable given the scan above, kept for clarity
				}
				hit := false
				for k2 := range sjc.S.Uses {
					if u2 := sjc.S.Uses[k2]; u2.Scalar() && u2.Obj == x {
						sameOcc := sjc.OccIdx == sc.OccIdx
						allowed := g.cfg.UseUse
						if !sameOcc && n.IsPath {
							allowed = g.cfg.UseUse && g.cfg.PathSpec
						}
						if allowed {
							slotSet.Static = SUU
							slotSet.StTgtStmt = int32(j)
							slotSet.StTgtSlot = int32(k2)
							g.staticUU++
							hit = true
						}
						break
					}
				}
				if hit {
					break
				}
			}
		}
	}
}

// buildStaticCD installs static control edges: path-internal ancestors at
// delta 0 (OPT-5) and unique external ancestors at delta 1 (OPT-4),
// including unique call sites for function entries. Every static control
// edge is a bet verified at build time; mis-predictions get labels.
func (g *Graph) buildStaticCD(n *Node) {
	for oi := range n.Occs {
		occ := &n.Occs[oi]
		b := occ.B
		ancs := b.CDAncestors

		if g.cfg.SpecCD && !n.IsPath && oi > 0 {
			// Continuation occurrence of a superblock: control equivalent
			// to the head (same ancestors, and nothing of this frame runs
			// in between), so its control dependence is the head's
			// resolution at the same timestamp (OPT-5a's control
			// equivalence rule). Entry chains are the exception: the head
			// resolves to the interprocedural call-site attachment, which
			// belongs to the entry block alone — its continuations have no
			// controlling instance, so inferring the head's resolution
			// would drag the call site into their slices.
			if n.Occs[0].B != b.Fn.Entry() {
				occ.CD.Static = CDSame
				occ.CD.StTgtOcc = 0
				g.staticCD++
				continue
			}
		}
		if g.cfg.SpecCD && n.IsPath {
			// Latest earlier occurrence that is a static ancestor.
			for j := oi - 1; j >= 0; j-- {
				if blockIn(ancs, n.Occs[j].B) {
					occ.CD.Static = CDLocal
					occ.CD.StTgtOcc = int32(j)
					g.staticCD++
					break
				}
			}
			if occ.CD.Static != CDNone {
				continue
			}
		}
		if !g.cfg.InferCD || oi != 0 {
			continue
		}
		switch {
		case len(ancs) == 1:
			h := ancs[0]
			if !blockIn(h.Succs, b) {
				continue
			}
			term := h.Terminator()
			if term == nil {
				continue
			}
			occ.CD.Static = CDDelta
			occ.CD.StTgt = g.standaloneLoc(term)
			occ.CD.Delta = 1
			g.staticCD++
		case len(ancs) == 0 && b.Fn != g.p.Main && b == b.Fn.Entry():
			// Unique call site: the entry executes exactly one node after
			// the call block.
			var site *ir.Stmt
			count := 0
			for _, s := range g.p.Stmts {
				if s.Op == ir.OpCall && s.Callee == b.Fn {
					site = s
					count++
				}
			}
			if count != 1 {
				continue
			}
			occ.CD.Static = CDDelta
			occ.CD.StTgt = g.standaloneLoc(site)
			occ.CD.Delta = 1
			g.staticCD++
		}
	}
}

// standaloneLoc returns the copy of s in its block's standalone
// (logical-block) node.
func (g *Graph) standaloneLoc(s *ir.Stmt) InstLoc {
	loc := g.blockLoc[s.Block.ID]
	n := g.nodes[loc.node]
	return InstLoc{Node: loc.node, Stmt: n.Occs[loc.occ].StmtOff + int32(s.Idx)}
}

func blockIn(bs []*ir.Block, b *ir.Block) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}

// markResolveTracks flags every use slot that is the target of a use-use
// edge, so the builder records its resolution during each node execution.
func (g *Graph) markResolveTracks() {
	for _, n := range g.nodes {
		for k := range n.UseSets {
			us := &n.UseSets[k]
			if us.Static != SUU {
				continue
			}
			n.setTracked(us.StTgtStmt, us.StTgtSlot)
		}
	}
}

// buildClusters assigns OPT-3 and OPT-6 label-sharing clusters.
//
// OPT-3: for each (def block, use block) pair, all "clean" candidates —
// the use has no earlier local may-def, the def is the block's last
// (must-)def of the object, and no block strictly inside the chop may
// define the object — are guaranteed to be exercised simultaneously with
// identical labels, so their edges share one list.
//
// OPT-6: a block with a unique control ancestor shares its control labels
// with a clean data edge from that ancestor, when one exists.
func (g *Graph) buildClusters() {
	nextID := int32(0)
	for _, f := range g.p.Funcs {
		if g.cfg.ShareData {
			nextID = g.buildDataClusters(f, nextID)
		}
		if g.cfg.ShareCDData {
			nextID = g.buildCDClusters(f, nextID)
		}
	}
}

type dataCand struct {
	d    *ir.Stmt
	u    *ir.Stmt
	slot int
	x    ir.ObjID
}

func (g *Graph) buildDataClusters(f *ir.Func, nextID int32) int32 {
	rd := dataflow.ComputeReachingDefs(f)
	type pairKey struct{ bd, bu ir.BlockID }
	byPair := map[pairKey][]dataCand{}
	for _, bu := range f.Blocks {
		for i, s := range bu.Stmts {
			for k, us := range s.Uses {
				if !us.Scalar() {
					continue
				}
				x := us.Obj
				if anyMayDefBefore(bu, i, x) {
					continue
				}
				// A may-def of x at or after the use in this very block —
				// a call whose callee writes x, say — is harmless in
				// straight line, but when the block lies on a cycle it
				// flows around the back edge into the next iteration's
				// use, making the edge's producer vary even though the
				// chop interior below is spotless (the chop scan excludes
				// its endpoint blocks). Every other cyclic path back to
				// the use runs through chop-interior blocks, which the
				// InteriorClean check covers.
				if blockOnCycle(bu) && mayDefAtOrAfterIdx(bu.Stmts, i, x) {
					continue
				}
				for _, ds := range rd.DefsReaching(bu, x) {
					if !ds.Must || ds.Stmt.Block == bu {
						continue
					}
					if !isLastDefIn(ds.Stmt.Block, ds.Stmt, x) {
						continue
					}
					k2 := pairKey{ds.Stmt.Block.ID, bu.ID}
					byPair[k2] = append(byPair[k2], dataCand{d: ds.Stmt, u: s, slot: k, x: x})
				}
			}
		}
	}
	for pk, cands := range byPair {
		if len(cands) < 2 {
			continue
		}
		bd := g.p.Block(pk.bd)
		bu := g.p.Block(pk.bu)
		var clean []dataCand
		for _, c := range cands {
			if dataflow.InteriorClean(f, bd, bu, c.x) {
				clean = append(clean, c)
			}
		}
		if len(clean) < 2 {
			continue
		}
		id := nextID
		nextID++
		g.clusterIsCD[id] = false
		assigned := 0
		for _, c := range clean {
			if g.assignDataCluster(c.u, c.slot, id, c.d.ID) {
				assigned++
			}
		}
		if assigned < 2 {
			delete(g.clusterIsCD, id) // degenerate: nothing actually shares
		}
	}
	return g.buildArrayClusters(f, nextID)
}

// arrayCand is one candidate for the array generalization of OPT-3: a
// paired pattern in which block bd writes array A through its sole store
// with index scalar xd, and block bu reads A with index scalar xu. Two
// such candidates over different arrays (same bd, bu, xd, xu) are always
// exercised together on the same element, so their labels coincide: the
// last bd execution that wrote the read element wrote both arrays at that
// element (both stores are straight-line in bd with an unchanged index),
// and chop cleanliness rules out any intervening writer.
type arrayCand struct {
	d    *ir.Stmt
	u    *ir.Stmt
	slot int
	arr  ir.ObjID
}

// chainVN performs a chain-local value-numbering walk over the statements
// of one logical block: it returns, for every statement, the value number
// of its array-store index operand (or -1) and, for every (stmt, slot),
// the value number of its array-load index operand. Two equal numbers
// denote the same runtime value within one execution of the chain, which
// is what the array label-sharing argument needs (two stores or loads hit
// the same element).
func chainVN(p *ir.Program, stmts []*ir.Stmt) (defVN []int32, useVN map[[2]int32]int32) {
	defVN = make([]int32, len(stmts))
	useVN = map[[2]int32]int32{}
	var next int32 = 1
	fresh := func() int32 { next++; return next - 1 }
	vnOf := map[ir.ObjID]int32{} // scalar -> current value number
	vnExpr := map[string]int32{} // canonical op key -> value number
	scalarVN := func(o ir.ObjID) int32 {
		if v, ok := vnOf[o]; ok {
			return v
		}
		v := fresh()
		vnOf[o] = v
		return v
	}
	var exprVN func(e ir.Expr) int32
	exprVN = func(e ir.Expr) int32 {
		switch x := e.(type) {
		case *ir.EConst:
			k := fmt.Sprintf("c%d", x.Val)
			if v, ok := vnExpr[k]; ok {
				return v
			}
			v := fresh()
			vnExpr[k] = v
			return v
		case *ir.ELoad:
			return scalarVN(x.Obj)
		case *ir.EBinary:
			k := fmt.Sprintf("b%d_%d_%d", x.Op, exprVN(x.X), exprVN(x.Y))
			if v, ok := vnExpr[k]; ok {
				return v
			}
			v := fresh()
			vnExpr[k] = v
			return v
		case *ir.EUnary:
			k := fmt.Sprintf("u%d_%d", x.Op, exprVN(x.X))
			if v, ok := vnExpr[k]; ok {
				return v
			}
			v := fresh()
			vnExpr[k] = v
			return v
		}
		return fresh() // loads through memory, addresses, input: opaque
	}
	for j, s := range stmts {
		defVN[j] = -1
		// Record index value numbers for array loads of this statement.
		collect := func(e ir.Expr) {
			ir.WalkExpr(e, func(x ir.Expr) {
				if li, ok := x.(*ir.ELoadIdx); ok {
					useVN[[2]int32{int32(j), int32(li.Slot)}] = exprVN(li.Idx)
				}
			})
		}
		switch s.Op {
		case ir.OpAssign:
			collect(s.Rhs)
			if s.Lhs == ir.LIndex {
				collect(s.LhsIdx)
				defVN[j] = exprVN(s.LhsIdx)
			}
			if s.Lhs == ir.LDeref {
				collect(s.LhsAddr)
			}
		case ir.OpCond, ir.OpPrint, ir.OpReturn:
			collect(s.Rhs)
		case ir.OpCall:
			for _, a := range s.Args {
				collect(a)
			}
		}
		// Apply the statement's effects: a must-def rebinds its scalar to
		// the RHS value number; may-defs invalidate.
		if s.Op == ir.OpAssign && s.Lhs == ir.LVar {
			vnOf[s.LhsObj] = exprVN(s.Rhs)
		}
		for _, o := range s.MayDefs {
			if !p.Obj(o).IsArray {
				vnOf[o] = fresh()
			}
		}
	}
	return defVN, useVN
}

func (g *Graph) buildArrayClusters(f *ir.Func, nextID int32) int32 {
	type groupKey struct {
		bd, bu ir.BlockID // logical-block heads
		vnD    int32
		vnU    int32
	}
	type chainInfo struct {
		head, last *ir.Block
		stmts      []*ir.Stmt
		defVN      []int32
		useVN      map[[2]int32]int32
	}
	var chains []chainInfo
	chainBlocks := map[*ir.Block]map[*ir.Block]bool{}
	for _, b := range f.Blocks {
		if b.IsContinuation() {
			continue
		}
		ci := chainInfo{head: b}
		set := map[*ir.Block]bool{}
		for _, cb := range ir.LogicalChain(b) {
			ci.last = cb
			ci.stmts = append(ci.stmts, cb.Stmts...)
			set[cb] = true
		}
		ci.defVN, ci.useVN = chainVN(g.p, ci.stmts)
		chainBlocks[b] = set
		chains = append(chains, ci)
	}

	// Per chain: the sole array-store statement of each array (chain index
	// and statement), or nothing if the array is written more than once or
	// through an opaque effect.
	type store struct {
		s  *ir.Stmt
		at int
	}
	soleStore := make([]map[ir.ObjID]store, len(chains))
	for ci, ch := range chains {
		writes := map[ir.ObjID][]store{}
		for j, s := range ch.stmts {
			if s.Op == ir.OpAssign && s.Lhs == ir.LIndex {
				writes[s.LhsObj] = append(writes[s.LhsObj], store{s: s, at: j})
			} else {
				for _, o := range s.MayDefs {
					if g.p.Obj(o).IsArray {
						writes[o] = append(writes[o], store{})
					}
				}
			}
		}
		m := map[ir.ObjID]store{}
		for o, ss := range writes {
			if len(ss) == 1 && ss[0].s != nil {
				m[o] = ss[0]
			}
		}
		soleStore[ci] = m
	}
	mayDefBeforeIdx := func(stmts []*ir.Stmt, end int, o ir.ObjID) bool {
		for j := 0; j < end; j++ {
			if dataflow.MayDefines(stmts[j], o) {
				return true
			}
		}
		return false
	}

	groups := map[groupKey][]arrayCand{}
	for _, chu := range chains {
		for i, s := range chu.stmts {
			for k, us := range s.Uses {
				if !us.IsIdx {
					continue
				}
				arr := us.Obj
				vnU, ok := chu.useVN[[2]int32{int32(i), int32(k)}]
				if !ok {
					continue
				}
				// Non-local read: nothing earlier in the logical block may
				// define the array.
				if mayDefBeforeIdx(chu.stmts, i, arr) {
					continue
				}
				// When the reading chain lies on a CFG cycle, a write to
				// the array at or after the read (including a call whose
				// callee stores to it) reaches the next iteration's read,
				// so the read element's producer can be that write rather
				// than the paired store. Harmless in straight line,
				// disqualifying on a cycle.
				if blockOnCycle(chu.head) && mayDefAtOrAfterIdx(chu.stmts, i, arr) {
					continue
				}
				for ci, chd := range chains {
					if chd.head == chu.head {
						continue
					}
					st, ok := soleStore[ci][arr]
					if !ok {
						continue
					}
					// The store must survive to the end of its chain, and
					// no block strictly between the chains may define the
					// array (the chop starts at the chain's last block so
					// the chain's own store is not misread as a killer).
					killed := false
					for j := st.at + 1; j < len(chd.stmts); j++ {
						if dataflow.MayDefines(chd.stmts[j], arr) {
							killed = true
							break
						}
					}
					if killed || !dataflow.InteriorCleanExcept(f, chd.last, chu.head, chainBlocks[chd.head], arr) {
						continue
					}
					gk := groupKey{bd: chd.head.ID, bu: chu.head.ID, vnD: chd.defVN[st.at], vnU: vnU}
					groups[gk] = append(groups[gk], arrayCand{d: st.s, u: s, slot: k, arr: arr})
				}
			}
		}
	}
	for _, cands := range groups {
		if len(cands) < 2 {
			continue
		}
		// Distinct arrays only: two reads of the same array already share
		// one producing statement and gain nothing from a cluster.
		seenArr := map[ir.ObjID]bool{}
		var distinct []arrayCand
		for _, c := range cands {
			if !seenArr[c.arr] {
				seenArr[c.arr] = true
				distinct = append(distinct, c)
			}
		}
		if len(distinct) < 2 {
			continue
		}
		id := nextID
		nextID++
		g.clusterIsCD[id] = false
		assigned := 0
		for _, c := range distinct {
			if g.assignDataCluster(c.u, c.slot, id, c.d.ID) {
				assigned++
			}
		}
		if assigned < 2 {
			delete(g.clusterIsCD, id)
		}
	}
	return nextID
}

// assignDataCluster sets the cluster on every copy of the use slot,
// returning false if any copy already belongs to a cluster.
func (g *Graph) assignDataCluster(u *ir.Stmt, slot int, id int32, def ir.StmtID) bool {
	locs := g.copies[u.ID]
	for _, loc := range locs {
		if g.nodes[loc.Node].useSet(loc.Stmt, int32(slot)).ClusterID >= 0 {
			return false
		}
	}
	for _, loc := range locs {
		us := g.nodes[loc.Node].useSet(loc.Stmt, int32(slot))
		us.ClusterID = id
		us.ClusterDef = def
	}
	return true
}

func (g *Graph) buildCDClusters(f *ir.Func, nextID int32) int32 {
	for _, b := range f.Blocks {
		if len(b.CDAncestors) != 1 {
			continue
		}
		h := b.CDAncestors[0]
		if h.Fn != f {
			continue
		}
		found := false
		for i, s := range b.Stmts {
			if found {
				break
			}
			for k, us := range s.Uses {
				if !us.Scalar() {
					continue
				}
				x := us.Obj
				if anyMayDefBefore(b, i, x) {
					continue
				}
				d := lastMustDefIn(h, x)
				if d == nil {
					continue
				}
				// Same back-edge screen as the OPT-3 clusters: a may-def
				// of x at or after the use (a callee's MOD write, in
				// particular) reaches the next iteration's use when b sits
				// on a cycle, letting the data edge's producer differ from
				// the controlling h execution — its labels then cannot
				// stand in for the control labels.
				if blockOnCycle(b) && mayDefAtOrAfterIdx(b.Stmts, i, x) {
					continue
				}
				if !dataflow.InteriorClean(f, h, b, x) {
					continue
				}
				id := nextID
				if !g.assignDataCluster(s, k, id, d.ID) {
					continue
				}
				nextID++
				g.clusterIsCD[id] = true
				for _, ol := range g.occCopies[b.ID] {
					g.nodes[ol.node].Occs[ol.occ].CD.ClusterID = id
				}
				found = true
				break
			}
		}
	}
	return nextID
}

// mayDefAtOrAfterIdx reports whether stmts[i:] contains a statement that
// may define o.
func mayDefAtOrAfterIdx(stmts []*ir.Stmt, i int, o ir.ObjID) bool {
	for j := i; j < len(stmts); j++ {
		if dataflow.MayDefines(stmts[j], o) {
			return true
		}
	}
	return false
}

// blockOnCycle reports whether some CFG path leads from b back to b.
func blockOnCycle(b *ir.Block) bool {
	seen := map[*ir.Block]bool{}
	stack := append([]*ir.Block{}, b.Succs...)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == b {
			return true
		}
		if seen[x] {
			continue
		}
		seen[x] = true
		stack = append(stack, x.Succs...)
	}
	return false
}

// anyMayDefBefore reports whether any statement of b before index i may
// define x.
func anyMayDefBefore(b *ir.Block, i int, x ir.ObjID) bool {
	for j := 0; j < i; j++ {
		if dataflow.MayDefines(b.Stmts[j], x) {
			return true
		}
	}
	return false
}

// isLastDefIn reports whether d is the last statement of b that may define
// x (so b's execution always leaves x holding d's value).
func isLastDefIn(b *ir.Block, d *ir.Stmt, x ir.ObjID) bool {
	for j := d.Idx + 1; j < len(b.Stmts); j++ {
		if dataflow.MayDefines(b.Stmts[j], x) {
			return false
		}
	}
	return true
}

// lastMustDefIn returns the last statement of b that must-defines x with
// no later may-def, or nil.
func lastMustDefIn(b *ir.Block, x ir.ObjID) *ir.Stmt {
	for j := len(b.Stmts) - 1; j >= 0; j-- {
		s := b.Stmts[j]
		if s.MustDef == x {
			return s
		}
		if dataflow.MayDefines(s, x) {
			return nil
		}
	}
	return nil
}
