package infinigraph

import (
	"gdbm/internal/model"
	"gdbm/internal/query/stats"
)

// This file is the engine's planning surface, mirroring memgraph/kvgraph:
// epoch-keyed cardinality statistics and the sorted-adjacency capability,
// both served from the pinned merged-shard snapshot so they see one stable
// epoch and never block writers.

// PlanStats implements stats.Provider from the pinned view: statistics
// are keyed on its stable epoch, so any write makes them unreachable and
// the next call builds them for the then-current view (see
// stats.Versioned.Get).
func (db *DB) PlanStats() (*stats.Stats, error) {
	g, release, err := db.AcquireSnapshot()
	if err != nil {
		return nil, err
	}
	defer release()
	return db.pstats.Get(g), nil
}

// SortedNeighborIDs implements model.SortedAdjacency from the pinned
// snapshot, whose CSR rows serve the sorted lists without walking the
// per-partition edge maps.
func (db *DB) SortedNeighborIDs(id model.NodeID, dir model.Direction, label string) ([]model.NodeID, error) {
	g, release, err := db.AcquireSnapshot()
	if err != nil {
		return nil, err
	}
	defer release()
	sa, ok := g.(model.SortedAdjacency)
	if !ok {
		return nil, model.ErrUnsupported
	}
	return sa.SortedNeighborIDs(id, dir, label)
}

var (
	_ stats.Provider        = (*DB)(nil)
	_ model.SortedAdjacency = (*DB)(nil)
)
