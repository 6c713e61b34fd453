package stats_test

import (
	"math"
	"sync"
	"testing"

	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/query/stats"
)

func buildGraph(t *testing.T, nodes int) (*memgraph.Graph, []model.NodeID) {
	t.Helper()
	g := memgraph.New()
	labels := []string{"person", "place", "thing"}
	ids := make([]model.NodeID, 0, nodes)
	for i := 0; i < nodes; i++ {
		id, err := g.AddNode(labels[i%len(labels)], model.Props("rank", i%7))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 1; i < nodes; i++ {
		if _, err := g.AddEdge("knows", ids[i], ids[i/2], nil); err != nil {
			t.Fatal(err)
		}
	}
	return g, ids
}

func TestBuildCounts(t *testing.T) {
	g, _ := buildGraph(t, 30)
	s, err := stats.Build(g, g.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes != 30 || s.Edges != 29 {
		t.Fatalf("counts = %d nodes %d edges", s.Nodes, s.Edges)
	}
	if s.NodeLabel["person"] != 10 || s.NodeLabel["place"] != 10 || s.NodeLabel["thing"] != 10 {
		t.Fatalf("label histogram = %v", s.NodeLabel)
	}
	if s.EdgeLabel["knows"] != 29 {
		t.Fatalf("edge histogram = %v", s.EdgeLabel)
	}
	if got := s.CountNodes("person"); got != 10 {
		t.Errorf("CountNodes(person) = %v", got)
	}
	if got := s.CountNodes(""); got != 30 {
		t.Errorf("CountNodes() = %v", got)
	}
	// Fanout: 29 knows edges over 30 nodes, doubled for Both.
	if got := s.Fanout("knows", model.Out); math.Abs(got-29.0/30) > 1e-9 {
		t.Errorf("Fanout(knows, Out) = %v", got)
	}
	if got := s.Fanout("knows", model.Both); math.Abs(got-2*29.0/30) > 1e-9 {
		t.Errorf("Fanout(knows, Both) = %v", got)
	}
	if got := s.Fanout("ghost", model.Out); got != 0 {
		t.Errorf("Fanout(ghost) = %v", got)
	}
}

func TestPropSelectivity(t *testing.T) {
	g, _ := buildGraph(t, 70)
	s, err := stats.Build(g, g.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	// rank takes 7 distinct values; below sketch saturation this is exact.
	d, ok := s.DistinctValues("", "rank")
	if !ok || d != 7 {
		t.Fatalf("DistinctValues(rank) = %v, %v", d, ok)
	}
	if got := s.PropSelectivity("", "rank"); math.Abs(got-1.0/7) > 1e-9 {
		t.Errorf("PropSelectivity(rank) = %v", got)
	}
	// A never-seen property matches at most one node.
	if got := s.PropSelectivity("person", "ghost"); math.Abs(got-1.0/float64(s.NodeLabel["person"])) > 1e-9 {
		t.Errorf("PropSelectivity(ghost) = %v", got)
	}
	// A label with no nodes clamps to 1.
	if got := s.PropSelectivity("ghost", "rank"); got != 1 {
		t.Errorf("PropSelectivity(ghost label) = %v", got)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g, _ := buildGraph(t, 40)
	s, err := stats.Build(g, g.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range s.DegHist {
		total += c
	}
	if total != s.Nodes {
		t.Fatalf("degree histogram counts %d nodes, have %d", total, s.Nodes)
	}
	if p90 := s.DegreeP90(); p90 < 1 {
		t.Errorf("DegreeP90 = %v", p90)
	}
}

func TestVersionedEpochKeying(t *testing.T) {
	g, ids := buildGraph(t, 12)
	var v stats.Versioned
	view, release, err := g.AcquireView()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	s := v.Get(view)
	if s == nil || s.Epoch != g.Epoch() {
		t.Fatalf("Get = %+v, want stats at epoch %d", s, g.Epoch())
	}
	if got := v.Get(view); got != s {
		t.Fatal("published stats not served again for their epoch")
	}
	// Any mutation double-bumps the epoch: the old stats must be
	// unreachable for a view of the new epoch.
	if err := g.SetNodeProp(ids[0], "rank", model.Int(99)); err != nil {
		t.Fatal(err)
	}
	view2, release2, err := g.AcquireView()
	if err != nil {
		t.Fatal(err)
	}
	defer release2()
	s2 := v.Get(view2)
	if s2 == s || s2.Epoch != g.Epoch() {
		t.Fatalf("stale stats served after mutation: epoch %d, want %d", s2.Epoch, g.Epoch())
	}
	// A reader still pinned to the old view gets stats for its own epoch,
	// and that never displaces the newer publication.
	if old := v.Get(view); old.Epoch != s.Epoch {
		t.Fatalf("old view got epoch %d, want %d", old.Epoch, s.Epoch)
	}
	if got := v.Get(view2); got != s2 {
		t.Fatal("older build displaced newer stats")
	}
	// A view that is not a pinned snapshot has no epoch to key on.
	if got := v.Get(g); got != nil {
		t.Fatal("stats served for an unpinned graph")
	}
}

// TestPlanStatsSingleflight: after one write, concurrent PlanStats
// callers share one build of the new epoch and one *Stats.
func TestPlanStatsSingleflight(t *testing.T) {
	g, ids := buildGraph(t, 3000)
	if _, err := g.PlanStats(); err != nil {
		t.Fatal(err)
	}
	if err := g.SetNodeProp(ids[1], "rank", model.Int(-1)); err != nil {
		t.Fatal(err)
	}
	const n = 8
	got := make([]*stats.Stats, n)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < n; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			s, err := g.PlanStats()
			if err != nil {
				t.Error(err)
			}
			got[i] = s
		}(i)
	}
	start.Done()
	done.Wait()
	for i, s := range got {
		if s == nil || s != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p: want one shared build", i, s, got[0])
		}
	}
	if got[0].Epoch != g.Epoch() {
		t.Fatalf("shared stats at epoch %d, want %d", got[0].Epoch, g.Epoch())
	}
}
