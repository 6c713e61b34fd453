package diff

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gdbm/internal/adj"
	"gdbm/internal/model"
	"gdbm/internal/query/stats"
)

// StatsStore is a mutable store that serves planner statistics from its
// pinned copy-on-write snapshots.
type StatsStore interface {
	model.MutableGraph
	stats.Provider
}

// CheckPlanStatsExact proves block-incremental statistics exact on one
// store. It loads a base graph spanning several adj blocks, then applies
// 300 seeded random mutations: node and edge adds and removes (self-loops
// and empty labels included) and property overwrites of every value kind.
// extra, when non-nil, is one more mutation the sequence draws, for a
// store-specific path such as a wholesale restore. Before the first and
// after every step, PlanStats must deep-equal stats.Build over the
// snapshot pin returns, sketch hash lists included.
func CheckPlanStatsExact(t *testing.T, g StatsStore, pin func() (model.Graph, model.ReleaseFunc, error), extra func() error, seed int64) {
	t.Helper()
	const baseNodes, baseEdges, steps = 1200, 2600, 300
	rng := rand.New(rand.NewSource(seed))
	nodeLabels := []string{"", "person", "place"}
	edgeLabels := []string{"", "knows", "likes"}
	randValue := func() model.Value {
		switch rng.Intn(5) {
		case 0:
			return model.Null()
		case 1:
			return model.Bool(rng.Intn(2) == 0)
		case 2:
			return model.Int(int64(rng.Intn(50)))
		case 3:
			return model.Float(-rng.Float64() * 100)
		default:
			return model.Str(fmt.Sprintf("s%d", rng.Intn(1000)))
		}
	}
	props := []string{"rank", "name", "score", "flag"}

	var ids []model.NodeID
	for i := 0; i < baseNodes; i++ {
		id, err := g.AddNode(nodeLabels[i%len(nodeLabels)], model.Props(
			"rank", i%7, "name", fmt.Sprintf("n%d", i), "score", -float64(i)/3))
		if err != nil {
			t.Fatalf("seed %d: base AddNode: %v", seed, err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < baseEdges; i++ {
		from, to := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if _, err := g.AddEdge(edgeLabels[i%len(edgeLabels)], from, to, nil); err != nil {
			t.Fatalf("seed %d: base AddEdge: %v", seed, err)
		}
	}

	var nodes []model.NodeID
	var edges []model.EdgeID
	check := func(step int, what string) {
		t.Helper()
		got, err := g.PlanStats()
		if err != nil {
			t.Fatalf("seed %d step %d (%s): PlanStats: %v", seed, step, what, err)
		}
		view, release, err := pin()
		if err != nil {
			t.Fatalf("seed %d step %d (%s): pin: %v", seed, step, what, err)
		}
		defer release()
		snap, ok := view.(*adj.Snapshot)
		if !ok {
			t.Fatalf("seed %d: pinned view is %T, not an adj snapshot", seed, view)
		}
		want, err := stats.Build(snap, snap.Epoch())
		if err != nil {
			t.Fatalf("seed %d step %d (%s): Build: %v", seed, step, what, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d step %d (%s): PlanStats differs from stats.Build over the same snapshot\n got: %s\nwant: %s",
				seed, step, what, describeStats(got), describeStats(want))
		}
		nodes, edges = nodes[:0], edges[:0]
		if err := view.Nodes(func(n model.Node) bool { nodes = append(nodes, n.ID); return true }); err != nil {
			t.Fatalf("seed %d step %d: Nodes: %v", seed, step, err)
		}
		if err := view.Edges(func(e model.Edge) bool { edges = append(edges, e.ID); return true }); err != nil {
			t.Fatalf("seed %d step %d: Edges: %v", seed, step, err)
		}
	}

	check(0, "base graph")
	for step := 1; step <= steps; step++ {
		var what string
		var err error
		switch r := rng.Intn(20); {
		case r < 4 || len(nodes) == 0:
			what = "add node"
			_, err = g.AddNode(nodeLabels[rng.Intn(len(nodeLabels))], model.Properties{props[rng.Intn(len(props))]: randValue()})
		case r < 6:
			what = "remove node"
			err = g.RemoveNode(nodes[rng.Intn(len(nodes))])
		case r < 10:
			from := nodes[rng.Intn(len(nodes))]
			to := nodes[rng.Intn(len(nodes))]
			what = "add edge"
			if rng.Intn(4) == 0 {
				what, to = "add self-loop", from
			}
			_, err = g.AddEdge(edgeLabels[rng.Intn(len(edgeLabels))], from, to, nil)
		case r < 13 && len(edges) > 0:
			what = "remove edge"
			err = g.RemoveEdge(edges[rng.Intn(len(edges))])
		case r == 19 && extra != nil:
			what = "extra"
			err = extra()
		default:
			what = "set node prop"
			err = g.SetNodeProp(nodes[rng.Intn(len(nodes))], props[rng.Intn(len(props))], randValue())
		}
		if err != nil {
			t.Fatalf("seed %d step %d (%s): %v", seed, step, what, err)
		}
		check(step, what)
	}
}

// describeStats renders the exported parts of s for a failure message.
func describeStats(s *stats.Stats) string {
	if s == nil {
		return "<nil>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "epoch=%d nodes=%d edges=%d nodeLabel=%v edgeLabel=%v degHist=%v",
		s.Epoch, s.Nodes, s.Edges, s.NodeLabel, s.EdgeLabel, s.DegHist)
	for _, prop := range []string{"rank", "name", "score", "flag"} {
		d, _ := s.DistinctValues("", prop)
		fmt.Fprintf(&b, " distinct(%s)=%.1f", prop, d)
	}
	return b.String()
}
