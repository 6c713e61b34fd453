package plan

import (
	"strings"
	"testing"

	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/query"
)

// TestAggregateAnswers pins what every aggregate function answers, nulls
// and mixed kinds included: count counts a group's rows whatever its
// argument, sum and avg fold the numeric values (avg divides by the
// non-null ones), min and max compare the non-null values, and a group
// with no non-null value answers null for avg, min and max.
func TestAggregateAnswers(t *testing.T) {
	g := memgraph.New()
	for _, p := range []model.Properties{
		model.Props("g", "a", "v", 3),
		model.Props("g", "a", "v", 1.5),
		model.Props("g", "a"),
		model.Props("g", "a", "v", 10),
		model.Props("g", "b"),
		model.Props("g", "b"),
		model.Props("g", "c", "v", "x"),
		model.Props("g", "c", "v", 4),
		model.Props("g", "c", "v", "y"),
	} {
		if _, err := g.AddNode("P", p); err != nil {
			t.Fatal(err)
		}
	}
	src := UnindexedSource{g}
	v := query.Var{Name: "p", Prop: "v"}
	aggs := []AggItem{
		{Name: "rows", Fn: "count"},
		{Name: "n", Fn: "COUNT", Arg: v},
		{Name: "sum", Fn: "sum", Arg: v},
		{Name: "avg", Fn: "avg", Arg: v},
		{Name: "min", Fn: "min", Arg: v},
		{Name: "max", Fn: "Max", Arg: v},
	}
	cases := []struct {
		name, label string
		group       bool
		want        string
	}{
		{"grouped", "P", true, "a 4 4 14.5 4.833333333333333 1.5 10; b 2 2 0 null null null; c 3 3 4 1.3333333333333333 4 y"},
		{"global", "P", false, "9 9 18.5 3.0833333333333335 1.5 y"},
		{"no rows", "Q", false, "0 0 0 null null null"},
		{"no groups", "Q", true, ""},
	}
	for _, c := range cases {
		spec := &MatchSpec{
			Nodes: []NodePat{{Var: "p", Label: c.label}},
			Aggs:  aggs,
			Limit: -1,
		}
		cols := []string{"rows", "n", "sum", "avg", "min", "max"}
		if c.group {
			key := Item{Name: "g", Expr: query.Var{Name: "p", Prop: "g"}}
			spec.GroupBy = []Item{key}
			spec.OrderBy = []OrderKey{{Expr: query.Var{Name: "g"}}}
			cols = append([]string{"g"}, cols...)
		}
		op, err := Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Collect(op, src, cols)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var rows []string
		for _, row := range res.Rows {
			vals := make([]string, len(row))
			for i, v := range row {
				vals[i] = v.String()
			}
			rows = append(rows, strings.Join(vals, " "))
		}
		if got := strings.Join(rows, "; "); got != c.want {
			t.Errorf("%s: got %q\nwant %q", c.name, got, c.want)
		}
	}
	spec := &MatchSpec{Nodes: []NodePat{{Var: "p", Label: "P"}}, Aggs: []AggItem{{Name: "x", Fn: "median", Arg: v}}, Limit: -1}
	op, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(op, src, []string{"x"}); err == nil || !strings.Contains(err.Error(), `"median"`) {
		t.Errorf("unknown aggregate: err = %v", err)
	}
}
