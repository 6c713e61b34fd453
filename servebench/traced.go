package main

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"gdbm/internal/engine"
	"gdbm/internal/model"
	"gdbm/internal/obs"
	"gdbm/internal/query/plan"
	"gdbm/internal/query/stats"
)

// record is one traced request. Three observers fill it from outside the
// program's layers: the client (latency, body size), the handler wrapper
// (time in gdbserver's http.Handler) and the engine decorator (time in
// engine.QueryStream, in the plan.Sink, in PlanStats, and the existing
// obs spans).
type record struct {
	client  time.Duration
	bytes   int
	handler time.Duration

	engine     time.Duration // the decorator's whole QueryStream call
	sink       time.Duration // inside the wrapped plan.Sink calls
	rows       int
	lang       string
	parsed     bool // the engine parsed the statement (a result-cache hit does not)
	parse      time.Duration
	exec       time.Duration
	depth0     time.Duration // sum of the trace's depth-0 spans
	stats      time.Duration
	statsBuilt bool
}

// recordTable hands records from the client to the server-side observers
// and back. Its mutex also orders the handler goroutine's writes before
// the client's reads.
type recordTable struct {
	mu sync.Mutex
	m  map[string]*record
}

func newRecordTable() *recordTable { return &recordTable{m: map[string]*record{}} }

func (t *recordTable) begin(key string) {
	t.mu.Lock()
	t.m[key] = &record{}
	t.mu.Unlock()
}

func (t *recordTable) lookup(key string) *record {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[key]
}

func (t *recordTable) finish(rec *record, handler time.Duration) {
	t.mu.Lock()
	rec.handler = handler
	t.mu.Unlock()
}

// end removes and returns the request's record.
func (t *recordTable) end(key string) *record {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := t.m[key]
	delete(t.m, key)
	return rec
}

type recordKey struct{}

// timedHandler times gdbserver's handler for requests that carry a record
// key and hands the record to the engine decorator through the request
// context.
func timedHandler(next http.Handler, t *recordTable) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := t.lookup(r.Header.Get(recordHeader))
		if rec == nil {
			next.ServeHTTP(w, r)
			return
		}
		began := time.Now()
		defer func() { t.finish(rec, time.Since(began)) }()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), recordKey{}, rec)))
	})
}

// observed is the traced run's engine decorator. It forwards the surfaces
// the server and the seeding path use — Querier, StreamQuerier, Loader,
// Persistent — and, for requests carrying a record, times PlanStats before
// the statement, the QueryStream call, and the sink calls inside it, and
// collects the engine's own obs spans. It never changes an answer.
type observed struct {
	engine.Engine

	mu    sync.Mutex
	epoch uint64
	seen  []*stats.Stats // statistics handed out at epoch
}

func (o *observed) querier() engine.Querier {
	q, _ := o.Engine.(engine.Querier)
	return q
}

// LanguageName implements engine.Querier.
func (o *observed) LanguageName() string { return o.querier().LanguageName() }

// Query implements engine.Querier.
func (o *observed) Query(stmt string) (*plan.Result, error) { return o.querier().Query(stmt) }

// QueryStream implements engine.StreamQuerier.
func (o *observed) QueryStream(ctx context.Context, stmt string, sink plan.Sink) error {
	rec, _ := ctx.Value(recordKey{}).(*record)
	if rec == nil {
		return engine.QueryStream(ctx, o.querier(), stmt, sink)
	}
	began := time.Now()
	// A statistics failure is the engine's to report (its planner degrades
	// to the naive plan), so it only goes uncounted here.
	_, built, _ := o.planStats()
	rec.stats, rec.statsBuilt = time.Since(began), built
	tr := obs.New(stmt)
	ts := &timedSink{Sink: sink}
	err := engine.QueryStream(obs.WithTrace(ctx, tr), o.querier(), stmt, ts)
	rec.engine = time.Since(began)
	tr.Finish()
	rec.sink, rec.rows, rec.lang = ts.spent, ts.rows, o.LanguageName()
	for _, sp := range tr.Spans() {
		switch sp.Name {
		case "parse":
			rec.parsed = true
			rec.parse += sp.Dur
		case "exec":
			rec.exec += sp.Dur
		}
		if sp.Depth == 0 {
			rec.depth0 += sp.Dur
		}
	}
	return err
}

// PlanStats implements stats.Provider by forwarding.
func (o *observed) PlanStats() (*stats.Stats, error) {
	st, _, err := o.planStats()
	return st, err
}

// planStats asks the engine for its statistics and reports whether it
// built new ones: a *stats.Stats not handed out before is a rebuild.
func (o *observed) planStats() (st *stats.Stats, built bool, err error) {
	sp, ok := o.Engine.(stats.Provider)
	if !ok {
		return nil, false, nil
	}
	if st, err = sp.PlanStats(); err != nil {
		return nil, false, err
	}
	return st, o.note(st), nil
}

func (o *observed) note(st *stats.Stats) bool {
	if st == nil {
		return false
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	switch {
	case st.Epoch < o.epoch:
		return false
	case st.Epoch > o.epoch:
		o.epoch, o.seen = st.Epoch, o.seen[:0]
	case slices.Contains(o.seen, st):
		return false
	}
	o.seen = append(o.seen, st)
	return true
}

// LoadNode implements engine.Loader by forwarding.
func (o *observed) LoadNode(label string, props model.Properties) (model.NodeID, error) {
	l, ok := o.Engine.(engine.Loader)
	if !ok {
		return 0, fmt.Errorf("engine %s cannot ingest", o.Name())
	}
	return l.LoadNode(label, props)
}

// LoadEdge implements engine.Loader by forwarding.
func (o *observed) LoadEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error) {
	l, ok := o.Engine.(engine.Loader)
	if !ok {
		return 0, fmt.Errorf("engine %s cannot ingest", o.Name())
	}
	return l.LoadEdge(label, from, to, props)
}

// Flush implements engine.Persistent by forwarding.
func (o *observed) Flush() error {
	if p, ok := o.Engine.(engine.Persistent); ok {
		return p.Flush()
	}
	return nil
}

// timedSink times the server's sink: the rows' encoding and writes.
type timedSink struct {
	plan.Sink
	spent time.Duration
	rows  int
}

func (s *timedSink) Cols(cols []string) error {
	began := time.Now()
	err := s.Sink.Cols(cols)
	s.spent += time.Since(began)
	return err
}

func (s *timedSink) Row(vals []model.Value) error {
	began := time.Now()
	err := s.Sink.Row(vals)
	s.spent += time.Since(began)
	s.rows++
	return err
}

var (
	_ engine.StreamQuerier = (*observed)(nil)
	_ engine.Loader        = (*observed)(nil)
	_ engine.Persistent    = (*observed)(nil)
	_ stats.Provider       = (*observed)(nil)
)
