package diff

import (
	"fmt"
	"testing"

	"gdbm/internal/adj"
	"gdbm/internal/kvgraph"
	"gdbm/internal/memgraph"
	"gdbm/internal/storage/kv"
)

var statsLayouts = []adj.Layout{adj.LayoutVarint, adj.LayoutBitmap}

// TestPlanStatsExact: block-incremental PlanStats equals a full
// stats.Build after every random mutation, on both directory layouts.
// infinigraph runs the same check in its own package, which can reach its
// layout.
func TestPlanStatsExact(t *testing.T) {
	for _, l := range statsLayouts {
		t.Run(fmt.Sprintf("memgraph/layout%d", l), func(t *testing.T) {
			g := memgraph.New()
			g.SetViewLayout(l)
			var saved *memgraph.Graph
			restore := func() error {
				// Wholesale replacement marks every block dirty.
				if saved != nil {
					g.RestoreFrom(saved)
				}
				saved = g.Snapshot()
				return nil
			}
			CheckPlanStatsExact(t, g, g.AcquireView, restore, SeedOrDefault(int64(11+l)))
		})
		t.Run(fmt.Sprintf("kvgraph/layout%d", l), func(t *testing.T) {
			g := kvgraph.New(kv.NewMemory())
			g.SetViewLayout(l)
			CheckPlanStatsExact(t, g, g.AcquireView, nil, SeedOrDefault(int64(21+l)))
		})
	}
}
