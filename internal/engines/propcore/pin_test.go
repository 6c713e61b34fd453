package propcore

import (
	"testing"

	"gdbm/internal/index"
	"gdbm/internal/kvgraph"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/query/plan"
	"gdbm/internal/storage/kv"
)

// TestPinSourceMainMemoryOnly: a Core over a main-memory store pins a
// snapshot source whose statistics are the pinned epoch's; a Core over
// kvgraph answers with itself, so disk-backed reads stay on the pager.
func TestPinSourceMainMemoryOnly(t *testing.T) {
	c := newCore(t)
	c.AddNode("P", model.Props("name", "ada"))
	src, release, err := plan.Pin(c)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	p, ok := src.(*pinnedSource)
	if !ok {
		t.Fatalf("main-memory Core pinned %T, want *pinnedSource", src)
	}
	if p.Pins() != 1 {
		t.Errorf("snapshot pins = %d, want 1", p.Pins())
	}
	st, err := p.PlanStats()
	if err != nil || st == nil || st.Epoch != p.Epoch() || st.Nodes != 1 {
		t.Errorf("pinned PlanStats = %+v, %v; want the pinned epoch %d with 1 node", st, err, p.Epoch())
	}
	release()
	if p.Pins() != 0 {
		t.Errorf("snapshot pins after release = %d, want 0", p.Pins())
	}

	disk := New(kvgraph.New(kv.NewMemory()))
	src, release, err = plan.Pin(disk)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if src != plan.Source(disk) {
		t.Errorf("kvgraph Core pinned %T, want the live Core", src)
	}
}

// TestPinnedIndexedNodes: index hits resolve through the pinned snapshot.
// A node created after the pin is skipped although the live index holds
// it, and a node whose property changed after the pin is served with the
// value it had at the pin.
func TestPinnedIndexedNodes(t *testing.T) {
	c := newCore(t)
	if _, err := c.Idx.Create(index.Nodes, "name", index.KindHash); err != nil {
		t.Fatal(err)
	}
	ada, _ := c.AddNode("P", model.Props("name", "ada", "age", 36))
	src, release, err := plan.Pin(c)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	c.AddNode("P", model.Props("name", "bob"))
	if err := c.SetNodeProp(ada, "age", model.Int(37)); err != nil {
		t.Fatal(err)
	}
	lookup := func(name string) []model.Node {
		var got []model.Node
		handled, err := src.IndexedNodes("P", "name", model.Str(name), func(n model.Node) bool {
			got = append(got, n)
			return true
		})
		if err != nil || !handled {
			t.Fatalf("IndexedNodes(%s): handled=%v err=%v", name, handled, err)
		}
		return got
	}
	if got := lookup("bob"); len(got) != 0 {
		t.Errorf("node created after the pin served: %v", got)
	}
	got := lookup("ada")
	if len(got) != 1 || !got[0].Props.Get("age").Equal(model.Int(36)) {
		t.Errorf("ada through the pinned index = %v, want age 36", got)
	}
}

// starCore builds hub -link-> b_i for nb spokes, the first 10 of which
// link on to one leaf each, and every one of which has an "other" edge
// the pattern filters out: the two-hop count from the hub is 10 whatever
// nb is, while answering it takes 1+nb non-empty Neighbors calls.
func starCore(t *testing.T, nb int) *Core {
	t.Helper()
	c := New(memgraph.New())
	hub, _ := c.AddNode("Hub", nil)
	sink, _ := c.AddNode("Sink", nil)
	for i := 0; i < nb; i++ {
		b, _ := c.AddNode("B", nil)
		if _, err := c.AddEdge("link", hub, b, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddEdge("other", b, sink, nil); err != nil {
			t.Fatal(err)
		}
		if i < 10 {
			leaf, _ := c.AddNode("C", nil)
			if _, err := c.AddEdge("link", b, leaf, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// TestPinnedExecAllocsFlatInNeighborCalls pins the per-expansion
// allocation budget of the pinned read path: a two-hop count that makes
// 11 Neighbors calls and one that makes 1,001, both answering 10, must
// allocate the same to within 4. Snapshot adjacency is read in place and
// Expand builds its neighbor callback once per Run, so an expansion costs
// no allocation.
func TestPinnedExecAllocsFlatInNeighborCalls(t *testing.T) {
	allocs := func(c *Core) float64 {
		run := func() {
			src, release, err := plan.Pin(c)
			if err != nil {
				t.Fatal(err)
			}
			defer release()
			op, err := plan.Compile(&plan.MatchSpec{
				Nodes: []plan.NodePat{{Var: "a", Label: "Hub"}, {Var: "b"}, {Var: "c"}},
				Edges: []plan.EdgePat{
					{Label: "link", From: 0, To: 1, Dir: model.Out},
					{Label: "link", From: 1, To: 2, Dir: model.Out},
				},
				Aggs:  []plan.AggItem{{Name: "n", Fn: "count"}},
				Limit: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := plan.Collect(op, src, []string{"n"})
			if err != nil {
				t.Fatal(err)
			}
			if n, _ := res.Rows[0][0].AsInt(); n != 10 {
				t.Fatalf("count = %d, want 10", n)
			}
		}
		return testing.AllocsPerRun(20, run)
	}
	small := allocs(starCore(t, 10))
	large := allocs(starCore(t, 1000))
	if d := large - small; d > 4 || d < -4 {
		t.Fatalf("allocs grow with Neighbors calls: %v at 11 calls, %v at 1,001", small, large)
	}
}
