package report

import (
	"errors"
	"testing"

	"gdbm/internal/algo"
	"gdbm/internal/engine"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
)

// probeEngine is a minimal engine over a memgraph whose only essential
// query is the pattern matcher under test.
type probeEngine struct {
	*memgraph.Graph
	match func(g model.Graph, p *algo.Pattern) ([]algo.Match, error)
}

func (e *probeEngine) Name() string              { return "probe" }
func (e *probeEngine) SurveyRow() string         { return "Probe" }
func (e *probeEngine) Features() engine.Features { return engine.Features{} }
func (e *probeEngine) Close() error              { return nil }

func (e *probeEngine) Essentials() engine.Essentials {
	if e.match == nil {
		return engine.Essentials{}
	}
	return engine.Essentials{PatternMatching: func(p *algo.Pattern) ([]algo.Match, error) {
		return e.match(e.Graph, p)
	}}
}

func (e *probeEngine) LoadNode(label string, props model.Properties) (model.NodeID, error) {
	return e.AddNode(label, props)
}

func (e *probeEngine) LoadEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error) {
	return e.AddEdge(label, from, to, props)
}

// TestTableVIIPatternMatchingProbe: the "Pattern matching" cell is marked
// only when the engine's matcher runs and answers the probe correctly — a
// matcher that errs, drops a match, adds one or binds the wrong node leaves
// it blank, however it is wired.
func TestTableVIIPatternMatchingProbe(t *testing.T) {
	find := func(g model.Graph, p *algo.Pattern) ([]algo.Match, error) { return algo.FindMatches(g, p, 0) }
	cases := []struct {
		name  string
		match func(model.Graph, *algo.Pattern) ([]algo.Match, error)
		want  bool
	}{
		{"correct", find, true},
		{"absent", nil, false},
		{"error", func(model.Graph, *algo.Pattern) ([]algo.Match, error) { return nil, errors.New("unsupported") }, false},
		{"empty", func(model.Graph, *algo.Pattern) ([]algo.Match, error) { return nil, nil }, false},
		{"dropped", func(g model.Graph, p *algo.Pattern) ([]algo.Match, error) {
			ms, err := find(g, p)
			return ms[:1], err
		}, false},
		{"duplicated", func(g model.Graph, p *algo.Pattern) ([]algo.Match, error) {
			ms, err := find(g, p)
			return []algo.Match{ms[0], ms[0]}, err
		}, false},
		{"wrong binding", func(g model.Graph, p *algo.Pattern) ([]algo.Match, error) {
			ms, err := find(g, p)
			ms[1]["z"] = ms[1]["x"]
			return ms, err
		}, false},
	}
	col := -1
	for i, c := range TableVIICols {
		if c == "Pattern matching" {
			col = i
		}
	}
	for _, c := range cases {
		e := &probeEngine{Graph: memgraph.New(), match: c.match}
		tb, err := TableVII([]engine.Engine{e})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := tb.Rows[0].Cells[col] != ""; got != c.want {
			t.Errorf("%s: Pattern matching marked = %v, want %v", c.name, got, c.want)
		}
	}
}
