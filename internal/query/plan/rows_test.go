package plan

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/query"
)

// keepingSink keeps every slice Stream hands it, as the sink contract
// allows, plus a private copy to compare against later.
type keepingSink struct {
	kept, copies [][]model.Value
}

func (s *keepingSink) Cols([]string) error { return nil }

func (s *keepingSink) Row(vals []model.Value) error {
	s.kept = append(s.kept, vals)
	s.copies = append(s.copies, append([]model.Value(nil), vals...))
	return nil
}

// TestStreamSinkOwnsRows: every slice Stream hands a sink is its own. After
// Stream returns, the kept slices are pairwise distinct and still hold what
// they held when handed over — no later row overwrote them.
func TestStreamSinkOwnsRows(t *testing.T) {
	src, _ := people(t)
	spec := &MatchSpec{
		Nodes: []NodePat{{Var: "p", Label: "Person"}, {Var: "q"}},
		Edges: []EdgePat{{From: 0, To: 1, Dir: model.Both}},
		Return: []Item{
			{Name: "p", Expr: query.Var{Name: "p", Prop: "name"}},
			{Name: "q", Expr: query.Var{Name: "q", Prop: "name"}},
		},
		Limit: -1,
	}
	op, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	var sink keepingSink
	if err := Stream(op, src, []string{"p", "q"}, &sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.kept) < 2 {
		t.Fatalf("want several rows, got %d", len(sink.kept))
	}
	for i, row := range sink.kept {
		if fmt.Sprint(row) != fmt.Sprint(sink.copies[i]) {
			t.Errorf("row %d changed after hand-over: %v, was %v", i, row, sink.copies[i])
		}
		for j := range sink.kept[:i] {
			if &row[0] == &sink.kept[j][0] {
				t.Errorf("rows %d and %d share a backing array", j, i)
			}
		}
	}
}

// star builds hub -link-> b_i -link-> c_ij for nb spokes of fan leaves
// each: 1+nb Neighbors calls answer the two-hop pattern from the hub, and
// it has nb*fan rows.
func star(t *testing.T, nb, fan int) Source {
	t.Helper()
	g := memgraph.New()
	hub, _ := g.AddNode("Hub", nil)
	for i := 0; i < nb; i++ {
		b, _ := g.AddNode("B", nil)
		if _, err := g.AddEdge("link", hub, b, nil); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < fan; j++ {
			c, _ := g.AddNode("C", nil)
			if _, err := g.AddEdge("link", b, c, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	return UnindexedSource{g}
}

// TestExecAllocsDoNotGrowWithRows pins the per-row allocation budget: the
// two-hop count over two stars that make the same Neighbors calls but
// produce 10 and 1,000 rows must allocate almost the same. Operators bind
// into borrowed rows, so intermediate rows cost nothing.
func TestExecAllocsDoNotGrowWithRows(t *testing.T) {
	allocs := func(src Source, wantRows int64) float64 {
		spec := &MatchSpec{
			Nodes: []NodePat{{Var: "a", Label: "Hub"}, {Var: "b"}, {Var: "c"}},
			Edges: []EdgePat{
				{Label: "link", From: 0, To: 1, Dir: model.Out},
				{Label: "link", From: 1, To: 2, Dir: model.Out},
			},
			Aggs:  []AggItem{{Name: "n", Fn: "count"}},
			Limit: -1,
		}
		op, err := Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			res, err := Collect(op, src, []string{"n"})
			if err != nil {
				t.Fatal(err)
			}
			if n, _ := res.Rows[0][0].AsInt(); n != wantRows {
				t.Fatalf("count = %d, want %d", n, wantRows)
			}
		}
		return testing.AllocsPerRun(20, run)
	}
	small := allocs(star(t, 10, 1), 10)
	large := allocs(star(t, 10, 100), 1000)
	if d := large - small; d > 4 || d < -4 {
		t.Errorf("allocations grow with rows: %v for 10 rows, %v for 1000", small, large)
	}
}

// rowsOp emits fixed rows of one layout; each row is lent, as operators do.
type rowsOp struct {
	layout *query.Layout
	rows   [][]query.Entry
}

func (o *rowsOp) Run(_ Source, emit func(query.Row) error) error {
	row := query.NewRow(o.layout)
	for _, r := range o.rows {
		copy(row.Slots, r)
		if err := emit(row); err != nil {
			return err
		}
	}
	return nil
}

func (o *rowsOp) String() string { return "Rows" }

// TestOrderByTopKMatchesStableSort: ORDER BY … LIMIT keeps a bounded heap,
// and must return byte-for-byte what the stable sort of every row followed
// by Offset/Limit returns — ties in arrival order included. The keys are
// drawn from tiny domains so almost every comparison ties on some key.
func TestOrderByTopKMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	layout := query.NewLayout("id", "k1", "k2")
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		src := &rowsOp{layout: layout}
		for i := 0; i < n; i++ {
			k2 := query.ValueEntry(model.Str(string(rune('a' + rng.Intn(3)))))
			if rng.Intn(5) == 0 {
				k2 = query.ValueEntry(model.Null())
			}
			src.rows = append(src.rows, []query.Entry{
				query.ValueEntry(model.Int(int64(i))),
				query.ValueEntry(model.Int(int64(rng.Intn(4)))),
				k2,
			})
		}
		keys := []OrderKey{
			{Expr: query.Var{Name: "k1"}, Desc: rng.Intn(2) == 0},
			{Expr: query.Var{Name: "k2"}, Desc: rng.Intn(2) == 0},
		}
		if rng.Intn(4) == 0 {
			keys = keys[:1]
		}
		limit := []int{0, 1, 3, 10, n, n + 5}[rng.Intn(6)]
		offset := []int{0, 0, 1, 4}[rng.Intn(4)]

		// Reference: stable sort of all rows, then Offset/Limit.
		want := append([][]query.Entry(nil), src.rows...)
		sort.SliceStable(want, func(i, j int) bool {
			for k, key := range keys {
				c := want[i][k+1].Value.Compare(want[j][k+1].Value)
				if c != 0 {
					return (c < 0) != key.Desc
				}
			}
			return false
		})
		if offset > len(want) {
			offset = len(want)
		}
		want = want[offset:]
		if limit < len(want) {
			want = want[:limit]
		}
		var ref []string
		for _, r := range want {
			ref = append(ref, fmt.Sprint(r[0].Value, r[1].Value, r[2].Value))
		}

		spec := &MatchSpec{OrderBy: keys, Limit: limit, Offset: offset}
		op := applyModifiers(src, spec)
		if ob := op.(*Limit).Child.(*OrderBy); ob.TopK != offset+limit {
			t.Fatalf("TopK = %d, want offset+limit = %d", ob.TopK, offset+limit)
		}
		unbounded := &Limit{Child: &OrderBy{Child: src, Keys: keys}, N: limit, Offset: offset}
		for name, op := range map[string]Op{"top-k": op, "unbounded": unbounded} {
			var got []string
			for _, r := range collectRows(t, op, nil) {
				got = append(got, fmt.Sprint(r["id"].Value, r["k1"].Value, r["k2"].Value))
			}
			if strings.Join(got, "\n") != strings.Join(ref, "\n") {
				t.Fatalf("trial %d (%s, n=%d offset=%d limit=%d keys=%v): got\n%s\nwant\n%s",
					trial, name, n, offset, limit, keys, strings.Join(got, "\n"), strings.Join(ref, "\n"))
			}
		}
	}
}
