package plan

import (
	"fmt"

	"gdbm/internal/model"
	"gdbm/internal/query"
)

// ExpandVar is the variable-length counterpart of Expand: it walks between
// Min and Max edges with the given label from FromVar and binds ToVar to
// each distinct reachable node (BFS semantics: one binding per node, at its
// minimum distance). It implements the reachability-inside-the-language
// capability the survey's conclusion asks of a standard graph query
// language; the gql syntax is (a)-[:knows*1..3]->(b).
type ExpandVar struct {
	Child   Op
	FromVar string
	ToVar   string
	Label   string
	Dir     model.Direction
	Min     int
	Max     int // 0 = unbounded
}

// Run implements Op.
func (x *ExpandVar) Run(src Source, emit func(query.Row) error) error {
	if x.Min < 0 {
		return fmt.Errorf("expandvar: negative minimum length")
	}
	return x.Child.Run(src, func(row query.Row) error {
		from, err := boundNode("expandvar", row, x.FromVar)
		if err != nil {
			return err
		}
		toSlot, err := slotOf("expandvar", row, x.ToVar)
		if err != nil {
			return err
		}
		target := row.Slots[toSlot]
		if target.Kind != query.EntryUnset && target.Kind != query.EntryNode {
			return nil // bound to a non-node: no neighbor matches
		}
		toBound, join := target.Kind == query.EntryNode, target.Node.ID
		if !toBound {
			defer func() { row.Slots[toSlot] = query.Entry{} }()
		}

		send := func(n model.Node) error {
			if toBound {
				if join != n.ID {
					return nil
				}
			} else {
				row.Slots[toSlot] = query.NodeEntry(n)
			}
			return emit(row)
		}

		// BFS by level over edges with the label.
		visited := map[model.NodeID]bool{from.ID: true}
		frontier := []model.Node{from}
		if x.Min == 0 {
			if err := send(from); err != nil {
				return err
			}
		}
		for depth := 1; len(frontier) > 0 && (x.Max == 0 || depth <= x.Max); depth++ {
			var next []model.Node
			for _, cur := range frontier {
				err := src.Neighbors(cur.ID, x.Dir, func(e model.Edge, n model.Node) bool {
					if x.Label != "" && e.Label != x.Label {
						return true
					}
					if visited[n.ID] {
						return true
					}
					visited[n.ID] = true
					next = append(next, n)
					return true
				})
				if err != nil {
					return err
				}
			}
			if depth >= x.Min {
				for _, n := range next {
					if err := send(n); err != nil {
						return err
					}
				}
			}
			frontier = next
		}
		return nil
	})
}

// String implements Op.
func (x *ExpandVar) String() string {
	return fmt.Sprintf("%s -> ExpandVar(%s-[:%s*%d..%d]-%s %s)",
		x.Child, x.FromVar, x.Label, x.Min, x.Max, x.ToVar, x.Dir)
}
