package infinigraph

import (
	"fmt"
	"testing"

	"gdbm/internal/adj"
	"gdbm/internal/constraint"
	"gdbm/internal/enginetest/diff"
)

// TestPlanStatsExact is the infinigraph leg of the diff package's
// block-incremental statistics check, on both directory layouts.
func TestPlanStatsExact(t *testing.T) {
	for _, l := range []adj.Layout{adj.LayoutVarint, adj.LayoutBitmap} {
		t.Run(fmt.Sprintf("layout%d", l), func(t *testing.T) {
			db := openDB(t, 4)
			db.ver.SetLayout(l)
			// The random sequence writes every value kind under every
			// label; statistics, not typing, are under test here.
			db.cons = constraint.NewSet()
			diff.CheckPlanStatsExact(t, db, db.AcquireSnapshot, nil, diff.SeedOrDefault(int64(31+l)))
		})
	}
}
