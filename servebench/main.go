// Command servebench is the repository's serving benchmark. It starts
// gdbserver's handler (internal/server) in-process behind loopback TCP,
// drives one of four workloads with a closed loop of two keep-alive
// clients for a fixed window, checks the answers against references
// computed from the generator's own node and edge lists, and prints the
// metrics by name with units. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through its build script, which builds
// it from the checkout it runs in; its own tests run from this directory
// with go test (it is a module of its own, outside the root module's
// go test ./...):
//
//	bash servebench/run.sh --workload lookup --seed 1 --seconds 15 --trace 0
//	bash servebench/run.sh --workload all --seed 1 --seconds 15 --trace 0
//
// Workloads, each on an R-MAT graph (edge factor 4) generated from the seed:
//
//	lookup       neograph (gql), sonesdb (gsql) and triplestore (sparqlish)
//	             point reads and 1-hop, JSON responses, 10k nodes
//	traverse     neograph 2-hop, triangle and grouped 2-hop, binary frames,
//	             10k nodes
//	mixed_rw     neograph 90% indexed reads, 10% SET/CREATE writes, JSON,
//	             10k nodes
//	cached_disk  neograph on a data directory with an 8 MiB cache budget,
//	             Zipf-skewed 1-hop and 2-hop-count reads, binary frames,
//	             2k nodes
//
// --trace 0 prints setup_s (median of three full set-ups: open, seed, index,
// warm), qps, latency_p50_ms, latency_p99_ms (with its sample count),
// error_rate (failed/attempted), heap_mb and cpu_us_per_req; the result line
// carries the steady ones (see endToEnd). --trace 1 is a separate run that
// wraps the handler, the engines and their sinks in timing decorators and
// reports per-layer metrics instead. The run exits non-zero when an answer
// is wrong or a request fails, or when the run is invalid.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	_ "gdbm/internal/engines/neograph"
	_ "gdbm/internal/engines/sonesdb"
	_ "gdbm/internal/engines/triplestore"
	"gdbm/internal/report"
	"gdbm/internal/server"
)

// setupReps is how many times a run sets up its served configuration; the
// last set-up is measured and setup_s is the median.
const setupReps = 3

func main() {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	name := flag.String("workload", "", "workload: "+strings.Join(names, ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed of the graph and of the statement streams")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the disk workload's data")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	var selected []*workload
	if *name == "all" {
		selected = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			os.Exit(2)
		}
		selected = []*workload{w}
	}
	final := verdict{Correct: true, Metrics: map[string]measure{}}
	for _, w := range selected {
		res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "servebench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		res.print(os.Stdout)
		final.Correct = final.Correct && res.correct()
		final.Attempted += res.attempted
		final.Failed += res.failed
		for name, m := range res.metrics {
			if len(selected) > 1 {
				name = w.name + "." + name
			}
			final.Metrics[name] = m
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

// verdict is the result line.
type verdict struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`
}

type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stamp records the host and every input of a run.
type stamp struct {
	Host       report.Stamp `json:"host"`
	Workload   string       `json:"workload"`
	Seed       int64        `json:"seed"`
	Seconds    float64      `json:"window_s"`
	Traced     bool         `json:"traced"`
	Clients    int          `json:"clients"`
	Graph      graphStamp   `json:"graph"`
	Engines    []string     `json:"engines"`
	Encoding   string       `json:"encoding"`
	Keys       string       `json:"keys"`
	Mix        []mixStamp   `json:"mix"`
	Admission  admission    `json:"admission"`
	CacheBytes int64        `json:"cache_bytes"`
	SetupReps  int          `json:"setup_reps"`
}

type graphStamp struct {
	Kind       string `json:"kind"`
	Nodes      int    `json:"nodes"`
	Edges      int    `json:"edges"`
	EdgeFactor int    `json:"edge_factor"`
}

type mixStamp struct {
	Shape  string  `json:"shape"`
	Engine string  `json:"engine"`
	Share  float64 `json:"share"`
}

type admission struct {
	Interactive server.ClassConfig `json:"interactive"`
	Batch       server.ClassConfig `json:"batch"`
}

func newStamp(w *workload, g *refGraph, seed int64, window time.Duration, traced bool) stamp {
	st := stamp{
		Host: report.NewStamp(), Workload: w.name, Seed: seed, Seconds: window.Seconds(),
		Traced: traced, Clients: clients, Engines: w.engines, Encoding: "json", Keys: "uniform",
		Admission:  admission{Interactive: interactiveClass, Batch: server.DefaultBatch},
		CacheBytes: w.cacheBytes, SetupReps: setupReps,
	}
	st.Graph = graphStamp{Kind: "rmat", Nodes: g.nodes(), EdgeFactor: 4}
	for _, out := range g.out {
		st.Graph.Edges += len(out)
	}
	if w.binary {
		st.Encoding = "binary"
	}
	if w.zipf {
		st.Keys = "zipf(s=1.1)"
	}
	total := 0
	for _, sh := range w.shapes {
		total += sh.weight
	}
	for _, sh := range w.shapes {
		st.Mix = append(st.Mix, mixStamp{sh.name, sh.engine, float64(sh.weight) / float64(total)})
	}
	return st
}

// runResult is one workload's run.
type runResult struct {
	stamp     stamp
	attempted int
	failed    int // failed, refused and wrong-answer requests
	wrong     int // completed requests the output check convicted
	failures  map[string]int
	problems  []string           // wrong answers and invalidity, first few
	metrics   map[string]measure // the result line's metrics
	shown     map[string]float64 // printed-only figures (see printed)
	notes     []string           // human-readable context printed beside the metrics
}

func (r *runResult) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *runResult) problem(format string, args ...any) {
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func runWorkload(w *workload, seed int64, window time.Duration, traced bool, workdir string) (*runResult, error) {
	var setups []setupTimes
	var inst *instance
	for rep := 0; rep < setupReps; rep++ {
		if inst != nil {
			inst.close()
		}
		// Each set-up and the window start from a collected heap, so the
		// previous instance's garbage is neither timed nor held twice.
		runtime.GC()
		var err error
		if inst, err = start(w, seed, traced, workdir); err != nil {
			return nil, err
		}
		setups = append(setups, inst.setup)
	}
	defer inst.close()

	runtime.GC()
	before, err := takeSnapshot(inst)
	if err != nil {
		return nil, err
	}
	runs := make([]*clientRun, len(inst.clients))
	cpu0 := cpuTime()
	began := time.Now()
	deadline := began.Add(window)
	var wg sync.WaitGroup
	for c, cl := range inst.clients {
		s := newStream(w, inst.graph, inst.names, seed, c, false)
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[c] = cl.run(s, deadline, inst.recs, c)
		}()
	}
	wg.Wait()
	elapsed := time.Since(began)
	cpu := cpuTime() - cpu0
	after, err := takeSnapshot(inst)
	if err != nil {
		return nil, err
	}

	res := &runResult{stamp: newStamp(w, inst.graph, seed, window, traced), failures: map[string]int{}, metrics: map[string]measure{}, shown: map[string]float64{}}
	var lat []time.Duration
	var recs []*record
	for _, cr := range runs {
		res.attempted += cr.attempted
		res.failed += cr.failed
		for k, n := range cr.failures {
			res.failures[k] += n
		}
		lat = append(lat, cr.latencies...)
		recs = append(recs, cr.recs...)
	}
	res.notes = append(res.notes, fmt.Sprintf("process CPU %.3fs in the window: utilisation %.2f of %d CPUs",
		cpu.Seconds(), cpu.Seconds()/elapsed.Seconds(), runtime.GOMAXPROCS(0)))
	if n := inst.dials.Load(); n > clients {
		res.problem("invalid run: %d connections opened for %d clients; it measured connection set-up, not the server", n, clients)
	}
	checked := res.checkSamples(inst, runs)
	writes, err := res.readBack(inst, runs)
	if err != nil {
		return nil, err
	}
	for _, cr := range runs {
		cr.samples = nil
	}
	qps := float64(len(lat)-res.wrong) / elapsed.Seconds()
	res.notes = append(res.notes, fmt.Sprintf("window %.3fs, %d requests, %d sampled reads checked, %d acknowledged writes read back",
		elapsed.Seconds(), res.attempted, checked, writes))

	if !traced {
		res.set("setup_s", medianOf(setups, func(s setupTimes) float64 { return s.total }))
		res.set("cpu_us_per_req", ratio(us(cpu), float64(len(lat)-res.wrong)))
		res.set("latency_p50_ms", ms(percentile(lat, 0.5)))
		res.set("heap_mb", liveHeapMiB())
		res.show("qps", qps)
		res.show("latency_p99_ms", ms(percentile(lat, 0.99)))
		res.notes = append(res.notes, fmt.Sprintf("latency samples n=%d; set-ups %s s", len(lat), setupList(setups)))
		return res, nil
	}
	compile, err := compileTimes(inst, seed)
	if err != nil {
		return nil, err
	}
	lr := layers(inst, recs, before, after, setups, compile)
	for _, p := range lr.problems {
		res.problem("%s", p)
	}
	for name, v := range lr.values {
		res.set(name, v)
	}
	res.set("trace.qps", qps)
	res.set("trace.latency_p50_ms", ms(percentile(lat, 0.5)))
	res.set("trace.latency_p99_ms", ms(percentile(lat, 0.99)))
	res.notes = append(res.notes, fmt.Sprintf("attribution checked on %d requests: max error %dns (slack %v)",
		lr.checked, lr.maxErrNs, attributionSlack))
	return res, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func setupList(setups []setupTimes) string {
	parts := make([]string, len(setups))
	for i, s := range setups {
		parts[i] = fmt.Sprintf("%.3f", s.total)
	}
	return strings.Join(parts, " ")
}

func (r *runResult) set(name string, v float64) {
	unit := ""
	for _, m := range append(slices.Clone(endToEnd), perLayer...) {
		if m.name == name {
			unit = m.unit
		}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = measure{Value: v, Unit: unit}
}

// show records a figure printed by name but kept off the result line.
func (r *runResult) show(name string, v float64) { r.shown[name] = v }

func (r *runResult) print(out io.Writer) {
	st, _ := json.Marshal(r.stamp)
	fmt.Fprintf(out, "servebench %s seed=%d traced=%v\n", r.stamp.Workload, r.stamp.Seed, r.stamp.Traced)
	fmt.Fprintf(out, "  stamp %s\n", st)
	specs := endToEnd
	if r.stamp.Traced {
		specs = perLayer
	}
	for _, m := range specs {
		fmt.Fprintf(out, "  %-28s %14.4f %s\n", m.name, r.metrics[m.name].Value, m.unit)
	}
	for _, m := range printed {
		if v, ok := r.shown[m.name]; ok {
			fmt.Fprintf(out, "  %-28s %14.4f %s (printed, not on the result line)\n", m.name, v, m.unit)
		}
	}
	fmt.Fprintf(out, "  %-28s %14.4f ratio (%d failed of %d attempted)\n", "error_rate",
		ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintf(out, "  # %s\n", n)
	}
	for k, n := range r.failures {
		fmt.Fprintf(out, "  ! failed %dx: %s\n", n, k)
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "  ! %s\n", p)
	}
}
