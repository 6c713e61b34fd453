package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"gdbm/internal/cache"
	"gdbm/internal/engine"
	"gdbm/internal/query/gql"
	"gdbm/internal/query/plan"
	"gdbm/internal/query/stats"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the server sees that the untraced
// run reports on its result line. qps and latency_p99_ms are printed beside
// them but not gated: on a shared two-CPU VM, steal time and SMT contention
// swing them between identical runs by more than any usable bound.
// cpu_us_per_req is the throughput cost that process CPU time measures
// without the steal. error_rate is 0 on correct code, so it rides the
// result line as failed/attempted.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"cpu_us_per_req", "us"},
	{"latency_p50_ms", "ms"},
	{"heap_mb", "MiB"},
}

// printed are end-to-end figures every untraced run prints by name but
// keeps off the result line.
var printed = []metricSpec{
	{"qps", "1/s"},
	{"latency_p99_ms", "ms"},
}

// perLayer are the traced run's metrics, named after the modules they time.
// Per request, net.self + server.self + engine + encode partition the
// client latency.
var perLayer = []metricSpec{
	{"trace.qps", "1/s"},
	{"trace.latency_p50_ms", "ms"},
	{"trace.latency_p99_ms", "ms"},
	{"net.self_us_p50", "us"},
	{"net.conns_opened", "count"},
	{"server.self_us_p50", "us"},
	{"server.self_us_p99", "us"},
	{"server.shed", "count"},
	{"encode.us_per_req", "us"},
	{"encode.bytes_per_row", "B"},
	{"encode.chunks_per_req", "count"},
	{"engine.us_p50", "us"},
	{"engine.us_p99", "us"},
	{"parse.gql.us_p50", "us"},
	{"parse.sparqlish.us_p50", "us"},
	{"plan.compile_us_p50", "us"},
	{"exec.ns_per_row", "ns"},
	{"exec.rows_per_req", "count"},
	{"stats.builds", "count"},
	{"stats.build_ms_p50", "ms"},
	{"stats.build_ms_total", "ms"},
	{"cache.results.hit_ratio", "ratio"},
	{"cache.adjacency.hit_ratio", "ratio"},
	{"cache.page.hit_ratio", "ratio"},
	{"cache.evictions", "count"},
	{"pager.page_reads_per_req", "count"},
	{"kvgraph.node_reads_per_req", "count"},
	{"kvgraph.adj_scans_per_req", "count"},
	{"go.alloc_bytes_per_req", "B"},
	{"go.allocs_per_req", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"setup.ingest_s.neograph", "s"},
	{"setup.ingest_s.sonesdb", "s"},
	{"setup.ingest_s.triplestore", "s"},
	{"setup.index_s", "s"},
	{"setup.warm_s", "s"},
}

// snapshot is the counter state of a served instance at one moment; the
// window's per-layer counts are differences of two snapshots.
type snapshot struct {
	counters map[string]uint64      // the obs.Registry (server.*, pager.*, kvgraph.*)
	statsz   map[string]uint64      // the same counters as /statsz serves them
	caches   map[string]cache.Stats // per tier, summed over engines
	runtime  map[string]uint64      // runtime/metrics samples
	pauseNs  uint64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func takeSnapshot(inst *instance) (snapshot, error) {
	s := snapshot{counters: inst.reg.Counters(), caches: map[string]cache.Stats{}, runtime: map[string]uint64{}}
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := get(inst.url+"/statsz", &doc); err != nil {
		return s, fmt.Errorf("statsz: %w", err)
	}
	s.statsz = doc.Counters
	for _, eng := range inst.bare {
		if cs, ok := eng.(engine.CacheStatser); ok {
			for tier, st := range cs.CacheStats() {
				s.caches[tier] = s.caches[tier].Add(st)
			}
		}
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for _, sm := range samples {
		if sm.Value.Kind() == metrics.KindUint64 {
			s.runtime[sm.Name] = sm.Value.Uint64()
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.pauseNs = ms.PauseTotalNs
	return s, nil
}

// liveHeapMiB forces collections and reads the live heap they marked. The
// second collection frees what the first left in sync.Pool victim caches,
// so buffers pooled by the last large responses do not count.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

// attributionSlack bounds how far a traced request's layer parts may stray
// from its client latency: each part must be non-negative and the parts
// must sum to the latency, within this slack. The trace's depth-0 spans
// must likewise fit inside the engine call.
const attributionSlack = time.Microsecond

// layerReport is a traced window's per-layer metrics and the outcome of its
// attribution check.
type layerReport struct {
	values   map[string]float64
	problems []string
	checked  int
	maxErrNs int64
}

func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func layers(inst *instance, recs []*record, before, after snapshot, setups []setupTimes, compile []time.Duration) *layerReport {
	lr := &layerReport{values: map[string]float64{}}
	v := lr.values
	var netSelf, srvSelf, eng, statsBuild []time.Duration
	parse := map[string][]time.Duration{}
	var sink, exec time.Duration
	var rows, bodyBytes, builds int
	for _, r := range recs {
		parts := [4]time.Duration{r.client - r.handler, r.handler - r.engine, r.engine - r.sink, r.sink}
		sum := parts[0] + parts[1] + parts[2] + parts[3]
		err := (sum - r.client).Abs()
		for _, p := range parts {
			if p < -attributionSlack {
				err = max(err, -p)
			}
		}
		if r.depth0 > r.engine+attributionSlack {
			err = max(err, r.depth0-r.engine)
		}
		lr.checked++
		lr.maxErrNs = max(lr.maxErrNs, int64(err))
		if err > attributionSlack && len(lr.problems) < 4 {
			lr.problems = append(lr.problems, fmt.Sprintf(
				"attribution: client %v, net %v + server %v + engine %v + encode %v (spans %v)",
				r.client, parts[0], parts[1], parts[2], parts[3], r.depth0))
		}
		netSelf = append(netSelf, parts[0])
		srvSelf = append(srvSelf, parts[1])
		eng = append(eng, parts[2])
		sink += r.sink
		exec += r.exec
		rows += r.rows
		bodyBytes += r.bytes
		if r.parsed {
			parse[r.lang] = append(parse[r.lang], r.parse)
		}
		if r.statsBuilt {
			builds++
			statsBuild = append(statsBuild, r.stats)
		}
	}
	n := float64(len(recs))
	v["net.self_us_p50"] = us(percentile(netSelf, 0.5))
	v["net.conns_opened"] = float64(inst.dials.Load())
	v["server.self_us_p50"] = us(percentile(srvSelf, 0.5))
	v["server.self_us_p99"] = us(percentile(srvSelf, 0.99))
	v["server.shed"] = float64(sumSuffix(after.statsz, "shed_rate", "shed_queue") - sumSuffix(before.statsz, "shed_rate", "shed_queue"))
	v["encode.us_per_req"] = ratio(us(sink), n)
	v["encode.bytes_per_row"] = ratio(float64(bodyBytes), float64(rows))
	v["encode.chunks_per_req"] = ratio(float64(after.counters["server.stream.chunks"]-before.counters["server.stream.chunks"]), n)
	v["engine.us_p50"] = us(percentile(eng, 0.5))
	v["engine.us_p99"] = us(percentile(eng, 0.99))
	v["parse.gql.us_p50"] = us(percentile(parse["gql"], 0.5))
	v["parse.sparqlish.us_p50"] = us(percentile(parse["sparqlish"], 0.5))
	v["plan.compile_us_p50"] = us(percentile(compile, 0.5))
	v["exec.ns_per_row"] = ratio(float64(exec), float64(rows))
	v["exec.rows_per_req"] = ratio(float64(rows), n)
	v["stats.builds"] = float64(builds)
	v["stats.build_ms_p50"] = ms(percentile(statsBuild, 0.5))
	var total time.Duration
	for _, d := range statsBuild {
		total += d
	}
	v["stats.build_ms_total"] = ms(total)
	var evictions uint64
	for _, tier := range []string{"results", "adjacency", "page"} {
		a, b := after.caches[tier], before.caches[tier]
		hits, misses := float64(a.Hits-b.Hits), float64(a.Misses-b.Misses)
		v["cache."+tier+".hit_ratio"] = ratio(hits, hits+misses)
		evictions += a.Evictions - b.Evictions
	}
	v["cache.evictions"] = float64(evictions)
	for name, counter := range map[string]string{
		"pager.page_reads_per_req":   "pager.page_reads",
		"kvgraph.node_reads_per_req": "kvgraph.node_reads",
		"kvgraph.adj_scans_per_req":  "kvgraph.adj_scans",
	} {
		v[name] = ratio(float64(after.counters[counter]-before.counters[counter]), n)
	}
	v["go.alloc_bytes_per_req"] = ratio(float64(after.runtime["/gc/heap/allocs:bytes"]-before.runtime["/gc/heap/allocs:bytes"]), n)
	v["go.allocs_per_req"] = ratio(float64(after.runtime["/gc/heap/allocs:objects"]-before.runtime["/gc/heap/allocs:objects"]), n)
	v["go.gc_cycles"] = float64(after.runtime["/gc/cycles/total:gc-cycles"] - before.runtime["/gc/cycles/total:gc-cycles"])
	v["go.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6
	for _, name := range []string{"neograph", "sonesdb", "triplestore"} {
		v["setup.ingest_s."+name] = medianOf(setups, func(s setupTimes) float64 { return s.ingest[name] })
	}
	v["setup.index_s"] = medianOf(setups, func(s setupTimes) float64 { return s.index })
	v["setup.warm_s"] = medianOf(setups, func(s setupTimes) float64 { return s.warm })
	return lr
}

func sumSuffix(m map[string]uint64, suffixes ...string) uint64 {
	var n uint64
	for k, v := range m {
		for _, s := range suffixes {
			if strings.HasSuffix(k, "."+s) {
				n += v
			}
		}
	}
	return n
}

func medianOf(setups []setupTimes, f func(setupTimes) float64) float64 {
	vs := make([]float64, len(setups))
	for i, s := range setups {
		vs[i] = f(s)
	}
	slices.Sort(vs)
	return vs[len(vs)/2]
}

// compileTimes times plan.CompileFor on the gql.Parse output of read
// statements the workload sends, after the window and outside the latency
// partition; the statistics are fetched first so no rebuild is timed.
func compileTimes(inst *instance, seed int64) ([]time.Duration, error) {
	src, ok := inst.bare["neograph"].(plan.Source)
	if !ok {
		return nil, nil
	}
	if sp, ok := src.(stats.Provider); ok {
		if _, err := sp.PlanStats(); err != nil {
			return nil, err
		}
	}
	s := newStream(inst.w, inst.graph, inst.names, seed, 0, false)
	var out []time.Duration
	for i := 0; i < 4096 && len(out) < 256; i++ {
		r := s.next(true)
		if r.engine != "neograph" {
			continue
		}
		st, err := gql.Parse(r.stmt)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", r.stmt, err)
		}
		began := time.Now()
		if _, err := plan.CompileFor(st.Match, src); err != nil {
			return nil, fmt.Errorf("compile %s: %w", r.stmt, err)
		}
		out = append(out, time.Since(began))
	}
	return out, nil
}
