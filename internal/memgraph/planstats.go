package memgraph

import (
	"gdbm/internal/adj"
	"gdbm/internal/model"
	"gdbm/internal/query/stats"
)

// This file is the graph's planning surface: epoch-keyed cardinality
// statistics for the cost-based planner and the sorted-adjacency capability
// the worst-case-optimal join intersects. Both are served from the pinned
// copy-on-write view, so they see exactly one stable epoch and never block
// writers.

// PlanStats implements stats.Provider from the pinned view: statistics
// are keyed on its stable epoch, so any write makes them unreachable and
// the next call builds them for the then-current view (see
// stats.Versioned.Get).
func (g *Graph) PlanStats() (*stats.Stats, error) {
	s, rel, err := g.PinSnapshot()
	if err != nil {
		return nil, err
	}
	defer rel()
	return g.ViewStats(s), nil
}

// ViewStats returns the statistics of one pinned view of this graph: the
// statistics PlanStats answers while s is the current view, built at most
// once per epoch either way.
func (g *Graph) ViewStats(s *adj.Snapshot) *stats.Stats { return g.stats.Get(s) }

// SortedNeighborIDs implements model.SortedAdjacency from the pinned view,
// whose CSR rows serve the sorted lists without touching node records.
func (g *Graph) SortedNeighborIDs(id model.NodeID, dir model.Direction, label string) ([]model.NodeID, error) {
	s, rel, err := g.PinSnapshot()
	if err != nil {
		return nil, err
	}
	defer rel()
	return s.SortedNeighborIDs(id, dir, label)
}

var (
	_ stats.Provider        = (*Graph)(nil)
	_ model.SortedAdjacency = (*Graph)(nil)
)
