package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"gdbm/internal/engine"
	"gdbm/internal/gen"
	"gdbm/internal/model"
	"gdbm/internal/obs"
	"gdbm/internal/query/stats"
	"gdbm/internal/server"
)

// interactiveClass is the admission config of the class every benchmark
// request uses: a token bucket far above any closed-loop rate two clients
// reach, so the load is never shed and the numbers measure serving, not
// refusal. (The stock 200 rps bucket would refuse most of lookup.)
var interactiveClass = server.ClassConfig{
	Rate: 1e6, Burst: 1 << 20, MaxInflight: 16, MaxQueue: 64,
	Weight: 4, Deadline: 60 * time.Second,
}

// setupTimes splits one set-up of a served configuration.
type setupTimes struct {
	ingest map[string]float64 // seconds in gen.Generate (and Flush) per engine
	index  float64            // seconds in CreateIndex("idx")
	warm   float64            // seconds warming: first PlanStats, cache fill
	total  float64
}

// instance is one served configuration: the engines of a workload, seeded
// and indexed, behind gdbserver's handler on a loopback TCP listener.
type instance struct {
	w      *workload
	url    string
	srv    *server.Server
	hs     *http.Server
	done   chan struct{} // closed when hs.Serve returns
	reg    *obs.Registry
	bare   map[string]engine.Engine // the engines as opened, for stats and Close
	served map[string]engine.Engine // what the server holds: bare or observed
	graph  *refGraph
	names  *naming
	dir    string
	recs   *recordTable // traced runs only
	setup  setupTimes
	// clients are the closed-loop callers, one keep-alive connection each,
	// kept from warm-up through the measured window; dials counts the
	// connections they opened.
	clients []*client
	dials   atomic.Int64
}

// start opens, seeds and indexes the workload's engines through the
// server's Open seam, serves them on loopback TCP and warms them. Its
// set-up time covers all of that.
func start(w *workload, seed int64, traced bool, workdir string) (inst *instance, err error) {
	begin := time.Now()
	inst = &instance{
		w: w, reg: obs.NewRegistry(),
		bare: map[string]engine.Engine{}, served: map[string]engine.Engine{},
		names: &naming{ids: map[string][]model.NodeID{}},
		setup: setupTimes{ingest: map[string]float64{}},
	}
	defer func() {
		if err != nil {
			inst.close()
			inst = nil
		}
	}()
	if w.disk {
		if err := os.MkdirAll(workdir, 0o755); err != nil {
			return inst, err
		}
		if inst.dir, err = os.MkdirTemp(workdir, "servebench-data-"); err != nil {
			return inst, err
		}
	}
	spec := gen.Spec{Kind: gen.RMAT, Nodes: w.nodes, EdgesPerNode: 4, Seed: seed}
	open := func(name string) (engine.Engine, error) {
		opts := engine.Options{Metrics: inst.reg}
		if w.disk {
			opts.Dir, opts.CacheBytes = inst.dir, w.cacheBytes
		}
		eng, err := engine.Open(name, opts)
		if err != nil {
			return nil, err
		}
		inst.bare[name] = eng
		if err := inst.seed(name, eng, spec); err != nil {
			return nil, fmt.Errorf("seed %s: %w", name, err)
		}
		served := eng
		if traced {
			served = &observed{Engine: eng}
		}
		inst.served[name] = served
		return served, nil
	}
	inst.srv, err = server.New(server.Config{
		Engines: w.engines, Open: open, Metrics: inst.reg, Interactive: interactiveClass,
	})
	if err != nil {
		return inst, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return inst, err
	}
	var h http.Handler = inst.srv.Handler()
	if traced {
		inst.recs = newRecordTable()
		h = timedHandler(h, inst.recs)
	}
	inst.url = "http://" + ln.Addr().String()
	for c := 0; c < clients; c++ {
		inst.clients = append(inst.clients, newClient(inst.url, w.binary, &inst.dials))
	}
	inst.hs = &http.Server{Handler: h}
	inst.done = make(chan struct{})
	go func() {
		defer close(inst.done)
		_ = inst.hs.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	return inst, inst.warm(seed, begin)
}

// seed loads the generated graph into eng through a tee, builds the idx
// index where the engine has one, and records how the engine names nodes.
func (inst *instance) seed(name string, eng engine.Engine, spec gen.Spec) error {
	l, ok := eng.(engine.Loader)
	if !ok {
		return fmt.Errorf("engine %s cannot ingest", name)
	}
	t := newTee(l)
	began := time.Now()
	if _, err := gen.Generate(spec, t); err != nil {
		return err
	}
	if p, ok := eng.(engine.Persistent); ok {
		if err := p.Flush(); err != nil {
			return err
		}
	}
	inst.setup.ingest[name] = time.Since(began).Seconds()
	if ix, ok := eng.(interface{ CreateIndex(prop string) error }); ok {
		began = time.Now()
		if err := ix.CreateIndex("idx"); err != nil {
			return err
		}
		inst.setup.index += time.Since(began).Seconds()
	}
	if inst.graph == nil {
		inst.graph = &t.g
	}
	inst.names.ids[name] = t.ids
	if q, ok := eng.(engine.Querier); ok && q.LanguageName() == "sparqlish" {
		return inst.resolveTerms(eng, t.ids)
	}
	return nil
}

// resolveTerms reads the term the triple store minted for each seeded node.
func (inst *instance) resolveTerms(eng engine.Engine, ids []model.NodeID) error {
	g, ok := eng.(interface {
		Node(model.NodeID) (model.Node, error)
	})
	if !ok {
		return errors.New("triple store exposes no node lookup")
	}
	inst.names.terms = make([]string, len(ids))
	for i, id := range ids {
		n, err := g.Node(id)
		if err != nil {
			return err
		}
		term, ok := n.Props.Get("value").AsString()
		if !ok {
			return fmt.Errorf("node %d has no term", id)
		}
		inst.names.terms[i] = term
	}
	return nil
}

// warm builds the lazy state a first request would otherwise pay for: the
// planner statistics of every engine, and a fixed number of read requests
// per client through the server (result and page caches, connections).
func (inst *instance) warm(seed int64, begin time.Time) error {
	began := time.Now()
	for _, name := range inst.w.engines {
		if sp, ok := inst.served[name].(stats.Provider); ok {
			if _, err := sp.PlanStats(); err != nil {
				return fmt.Errorf("plan stats %s: %w", name, err)
			}
		}
	}
	errs := make(chan error, clients)
	for c, cl := range inst.clients {
		s := newStream(inst.w, inst.graph, inst.names, seed, c, true)
		go func() {
			for i := 0; i < inst.w.warm; i++ {
				r := s.next(true)
				if o := cl.do(context.Background(), r, ""); o.err != nil {
					errs <- fmt.Errorf("warm-up %s: %w", r.stmt, o.err)
					return
				}
			}
			errs <- nil
		}()
	}
	var err error
	for range inst.clients {
		err = errors.Join(err, <-errs)
	}
	inst.setup.warm = time.Since(began).Seconds()
	inst.setup.total = time.Since(begin).Seconds()
	return err
}

// close stops serving, waits for the server goroutine and every handler to
// end, closes the engines and removes the data directory.
func (inst *instance) close() {
	for _, cl := range inst.clients {
		cl.close()
	}
	if inst.hs != nil {
		inst.srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = inst.hs.Shutdown(ctx) // a timeout here still falls through to Close
		cancel()
		_ = inst.hs.Close()
		<-inst.done
	}
	for _, eng := range inst.bare {
		_ = eng.Close()
	}
	if inst.dir != "" {
		_ = os.RemoveAll(inst.dir)
	}
}
