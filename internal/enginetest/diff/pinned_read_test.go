package diff

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"gdbm/internal/engine"
	"gdbm/internal/model"
	"gdbm/internal/query/plan"
	"gdbm/internal/query/stats"
)

// TestPinnedPlanTwins: the plan-differential corpus renders byte-identically
// through the live source and through the view plan.Pin hands a read
// statement, under every planner, on every snapshotting engine and on
// neograph's disk configuration (whose pin is the live store). The pinned
// side plans with the pinned view's own statistics. On the main-memory
// propcore engines the pin must really be a read-only view, or the twin
// would compare the live store with itself.
func TestPinnedPlanTwins(t *testing.T) {
	pats := GeneratePlanPats(SeedOrDefault(7), planPatCount)
	type target struct{ name, cfg string }
	targets := []target{{"neograph", "dir"}}
	for _, name := range snapEngines {
		targets = append(targets, target{name, "mem"})
	}
	mustPin := map[string]bool{"neograph/mem": true, "bitmapdb/mem": true, "triplestore/mem": true}
	for _, tg := range targets {
		key := tg.name + "/" + tg.cfg
		t.Run(key, func(t *testing.T) {
			live := openPlanInstance(t, tg.name, tg.cfg)
			src, release, err := plan.Pin(live.src)
			if err != nil {
				t.Fatal(err)
			}
			defer release()
			if _, writable := src.(model.MutableGraph); mustPin[key] && writable {
				t.Fatalf("plan.Pin returned a writable store (%T), not a pinned view", src)
			}
			pinned := &planInstance{name: live.name, src: src, st: live.st}
			if sp, ok := src.(stats.Provider); ok {
				st, err := sp.PlanStats()
				if err != nil {
					t.Fatal(err)
				}
				if st != nil {
					pinned.st = st
				}
			}
			for pi, pat := range pats {
				want, _ := runPat(t, live, pi, pat)
				got, _ := runPat(t, pinned, pi, pat)
				if got != want {
					t.Errorf("pat %d: pinned source disagrees with live\nlive:   %q\npinned: %q", pi, want, got)
				}
			}
		})
	}
}

// isolationCase is one language's read statement on a main-memory engine,
// with the seed it reads and the writes a sink makes mid-stream.
type isolationCase struct {
	engine, stmt string
	seed         func(t *testing.T, e engine.Engine)
	write        func(t *testing.T, e engine.Engine)
}

// writingSink renders the rows it receives and runs write once, on the
// first row — after the statement has started reading.
type writingSink struct {
	rows  []string
	write func()
}

func (s *writingSink) Cols([]string) error { return nil }

func (s *writingSink) Row(vals []model.Value) error {
	if s.write != nil {
		s.write()
		s.write = nil
	}
	s.rows = append(s.rows, fmt.Sprint(vals))
	return nil
}

func renderRows(res *plan.Result) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = fmt.Sprint(r)
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// seedPeople loads four P nodes in a knows-cycle with chords.
func seedPeople(t *testing.T, e engine.Engine) {
	ld := e.(engine.Loader)
	var ids []model.NodeID
	for i := 0; i < 4; i++ {
		id, err := ld.LoadNode("P", model.Props("name", fmt.Sprintf("p%d", i), "age", 30+i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := range ids {
		for _, j := range []int{(i + 1) % 4, (i + 2) % 4} {
			if _, err := ld.LoadEdge("knows", ids[i], ids[j], nil); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// rewritePeople sets every node's age and links every node to and from a
// new one, so expansions in either direction see the writes.
func rewritePeople(t *testing.T, e engine.Engine) {
	g := e.(model.MutableGraph)
	var ids []model.NodeID
	g.Nodes(func(n model.Node) bool { ids = append(ids, n.ID); return true })
	late, err := g.AddNode("P", model.Props("name", "late", "age", 99))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := g.SetNodeProp(id, "age", model.Int(99)); err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddEdge("knows", id, late, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddEdge("knows", late, id, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPinnedReadIsolation: a read statement sees one state of the graph.
// Its sink writes (SetNodeProp, AddNode, AddEdge) as soon as the first row
// arrives, yet receives exactly the answer the statement gave before any
// write; a second run of the statement then sees the writes. One case per
// query language, each on a main-memory engine.
func TestPinnedReadIsolation(t *testing.T) {
	cases := []isolationCase{
		{
			engine: "neograph",
			stmt:   `MATCH (a:P)-[:knows]->(b)-[:knows]->(c) RETURN a.name AS a, b.age AS b, c.name AS c`,
			seed:   seedPeople, write: rewritePeople,
		},
		{
			engine: "sonesdb",
			stmt:   `SELECT name, age FROM P`,
			seed:   seedPeople, write: rewritePeople,
		},
		{
			engine: "triplestore",
			stmt:   `SELECT ?s ?o WHERE { ?s <knows> ?o . }`,
			seed: func(t *testing.T, e engine.Engine) {
				ts := e.(interface{ AddTriple(s, p, o string) error })
				for i := 0; i < 4; i++ {
					for _, j := range []int{(i + 1) % 4, (i + 2) % 4} {
						if err := ts.AddTriple(fmt.Sprintf("p%d", i), "knows", fmt.Sprintf("p%d", j)); err != nil {
							t.Fatal(err)
						}
					}
				}
			},
			write: func(t *testing.T, e engine.Engine) {
				ts := e.(interface{ AddTriple(s, p, o string) error })
				for i := 0; i < 4; i++ {
					p := fmt.Sprintf("p%d", i)
					if err := ts.AddTriple(p, "knows", "late"); err != nil {
						t.Fatal(err)
					}
					if err := ts.AddTriple("late", "knows", p); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.engine, func(t *testing.T) {
			e, err := engine.Open(c.engine, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			c.seed(t, e)
			q := e.(engine.StreamQuerier)
			before, err := q.Query(c.stmt)
			if err != nil {
				t.Fatal(err)
			}
			want := renderRows(before)
			if len(before.Rows) < 2 {
				t.Fatalf("statement answers %d rows; the test needs rows after the first", len(before.Rows))
			}
			sink := &writingSink{write: func() { c.write(t, e) }}
			if err := q.QueryStream(context.Background(), c.stmt, sink); err != nil {
				t.Fatal(err)
			}
			sort.Strings(sink.rows)
			if got := strings.Join(sink.rows, "\n"); got != want {
				t.Errorf("rows streamed while the sink wrote differ from the pre-write answer\nwant:\n%s\ngot:\n%s", want, got)
			}
			after, err := q.Query(c.stmt)
			if err != nil {
				t.Fatal(err)
			}
			if renderRows(after) == want {
				t.Errorf("a later run does not see the sink's writes")
			}
		})
	}
}
