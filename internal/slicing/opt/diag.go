package opt

import (
	"fmt"
	"sort"
)

// Diagnose attributes stored label pairs to categories, for understanding
// where compression is lost. Shared lists are counted once, attributed to
// the first owning edge encountered.
func (g *Graph) Diagnose(topK int) (map[string]int64, []string) {
	cat := map[string]int64{}
	seen := map[*Labels]bool{}
	type owner struct {
		desc  string
		pairs int64
	}
	var owners []owner
	for _, n := range g.nodes {
		for si := range n.Stmts {
			sc := &n.Stmts[si]
			for k := range sc.S.Uses {
				us := n.useSet(int32(si), int32(k))
				var total int64
				for i := range us.Dyn {
					l := us.Dyn[i].L
					if seen[l] {
						continue
					}
					seen[l] = true
					total += int64(l.Len())
				}
				if total == 0 {
					continue
				}
				slot := sc.S.Uses[k]
				key := "data:scalar"
				switch {
				case slot.IsPtr:
					key = "data:ptr"
				case slot.IsIdx:
					key = "data:idx"
				case slot.Obj != NoObjSentinel && g.p.Obj(slot.Obj).IsRet:
					key = "data:ret"
				}
				if us.Static != SNone {
					key += "+static"
				}
				cat[key] += total
				owners = append(owners, owner{
					desc: fmt.Sprintf("%s s%d@%s slot%d %s node%d pairs=%d",
						key, sc.S.ID, sc.S.Pos, k, sc.S.Op, n.ID, total),
					pairs: total,
				})
			}
		}
		for oi := range n.Occs {
			var total int64
			for i := range n.Occs[oi].CD.Dyn {
				l := n.Occs[oi].CD.Dyn[i].L
				if seen[l] {
					continue
				}
				seen[l] = true
				total += int64(l.Len())
			}
			if total == 0 {
				continue
			}
			key := "cd"
			if n.Occs[oi].CD.Static != CDNone {
				key += "+static"
			}
			cat[key] += total
			owners = append(owners, owner{
				desc: fmt.Sprintf("%s block %s node%d occ%d pairs=%d",
					key, n.Occs[oi].B, n.ID, oi, total),
				pairs: total,
			})
		}
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i].pairs > owners[j].pairs })
	if topK > len(owners) {
		topK = len(owners)
	}
	var top []string
	for _, o := range owners[:topK] {
		top = append(top, o.desc)
	}
	return cat, top
}

// NoObjSentinel mirrors ir.NoObj for the diagnostic above.
const NoObjSentinel = -1

// EnableShortcuts toggles shortcut-edge traversal on an already built
// graph (Table 3 measures slicing with and without shortcuts on the same
// graph). Closures are computed lazily, so enabling is cheap.
func (g *Graph) EnableShortcuts(on bool) { g.cfg.Shortcuts = on }

// Config returns the graph's configuration.
func (g *Graph) Config() Config { return g.cfg }
