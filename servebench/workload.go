package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"gdbm/internal/model"
)

// workload is one traffic mix against one served configuration.
type workload struct {
	name, why string
	// nodes sizes the R-MAT graph (edge factor 4, label N, int property
	// idx, edges link) seeded into every engine.
	nodes   int
	engines []string
	// disk opens neograph on a data directory with cacheBytes of cache.
	disk       bool
	cacheBytes int64
	// binary asks for framed responses (Accept: application/x-gdbw).
	binary bool
	// zipf draws keys Zipf-skewed over a seeded node order; otherwise keys
	// are uniform.
	zipf bool
	// warm is the number of read requests each client sends while warming.
	warm int
	// checkEvery samples one read in checkEvery for the output check.
	checkEvery int
	shapes     []shape
}

// zone restricts which nodes a shape draws keys from. mixed_rw writes only
// from nodes its reads never start at, so every checked read has a fixed
// reference answer while writes run, and each client writes its own nodes,
// so the last acknowledged write per node is well defined. traverse starts
// only where a directed 2-hop walk exists: over half of R-MAT's nodes have
// none, and an empty answer measures request overhead, not traversal.
type zone uint8

const (
	zoneAll    zone = iota
	zoneRead        // idx % 10 != 0
	zoneWrite       // idx % 20 == 10 * client
	zoneTwoHop      // some a->b->c walk starts at the node
)

func (z zone) has(g *refGraph, k, client int) bool {
	switch z {
	case zoneRead:
		return k%10 != 0
	case zoneWrite:
		return k%20 == 10*client
	case zoneTwoHop:
		for _, b := range g.out[k] {
			if len(g.out[b]) > 0 {
				return true
			}
		}
		return false
	}
	return true
}

// shape is one statement template of a workload.
type shape struct {
	name    string
	engine  string
	weight  int // occurrences in each block of the mix (see stream.next)
	write   bool
	ordered bool
	zone    zone
	cols    []string
	stmt    func(n *naming, k, aux int) string
	// want is the reference answer of a read; nil for writes.
	want func(g *refGraph, n *naming, k int) result
	// aux draws a write's second operand: the SET value or the CREATE
	// target.
	aux func(rng *rand.Rand, k, nodes int) int
}

// naming holds how each engine names the seeded nodes: the IDs its Loader
// returned and, for the triple store, the node's term.
type naming struct {
	ids   map[string][]model.NodeID
	terms []string
}

const (
	gqlPoint = `MATCH (a:N {idx: %d}) RETURN a.idx AS idx, a.weight AS weight`
	gqlHop1  = `MATCH (a:N {idx: %d})-[:link]->(b) RETURN b.idx AS b`
)

var (
	neoPoint = shape{
		name: "gql.point", engine: "neograph", cols: []string{"idx", "weight"},
		stmt: func(_ *naming, k, _ int) string { return fmt.Sprintf(gqlPoint, k) },
		want: func(g *refGraph, _ *naming, k int) result { return g.pointRead(k) },
	}
	neoHop1 = shape{
		name: "gql.hop1", engine: "neograph", cols: []string{"b"},
		stmt: func(_ *naming, k, _ int) string { return fmt.Sprintf(gqlHop1, k) },
		want: func(g *refGraph, _ *naming, k int) result { return g.outNeighbors(k) },
	}
)

func with(s shape, weight int, z zone) shape {
	s.weight, s.zone = weight, z
	return s
}

func idName(n *naming, engine string) func(int32) string {
	return func(k int32) string { return canon(int64(n.ids[engine][k])) }
}

func termName(n *naming) func(int32) string {
	return func(k int32) string { return canon(n.terms[k]) }
}

var workloads = []*workload{
	{
		name:  "lookup",
		why:   "point reads and 1-hop over three languages: fixed per-request cost (parse, server, wire) dominates",
		nodes: 10000, engines: []string{"neograph", "sonesdb", "triplestore"},
		warm: 1000, checkEvery: 16,
		shapes: []shape{
			with(neoPoint, 1, zoneAll),
			with(neoHop1, 1, zoneAll),
			{
				name: "gsql.degree", engine: "sonesdb", weight: 1, cols: []string{"degree"},
				stmt: func(n *naming, k, _ int) string { return fmt.Sprintf("SELECT DEGREE OF %d", n.ids["sonesdb"][k]) },
				want: func(g *refGraph, _ *naming, k int) result { return result{intRow(g.degree(k))} },
			},
			{
				name: "gsql.neighbors", engine: "sonesdb", weight: 1, cols: []string{"id"},
				stmt: func(n *naming, k, _ int) string {
					return fmt.Sprintf("SELECT NEIGHBORS OF %d DEPTH 1", n.ids["sonesdb"][k])
				},
				want: func(g *refGraph, n *naming, k int) result {
					return distinctNeighbors(k, idName(n, "sonesdb"), g.out, g.in)
				},
			},
			{
				name: "sparqlish.out", engine: "triplestore", weight: 1, cols: []string{"o"},
				stmt: func(n *naming, k, _ int) string {
					return fmt.Sprintf("SELECT ?o WHERE { <%s> <link> ?o . }", n.terms[k])
				},
				want: func(g *refGraph, n *naming, k int) result { return distinctNeighbors(k, termName(n), g.out) },
			},
			{
				name: "sparqlish.in", engine: "triplestore", weight: 1, cols: []string{"s"},
				stmt: func(n *naming, k, _ int) string {
					return fmt.Sprintf("SELECT ?s WHERE { ?s <link> <%s> . }", n.terms[k])
				},
				want: func(g *refGraph, n *naming, k int) result { return distinctNeighbors(k, termName(n), g.in) },
			},
		},
	},
	{
		name:  "traverse",
		why:   "2-hop, triangle and grouped 2-hop over R-MAT hubs: executor per-row cost, plan choice and streaming encode dominate",
		nodes: 10000, engines: []string{"neograph"}, binary: true,
		warm: 100, checkEvery: 4,
		shapes: []shape{
			{
				name: "gql.hop2", engine: "neograph", weight: 1, zone: zoneTwoHop, cols: []string{"b", "c"},
				stmt: func(_ *naming, k, _ int) string {
					return fmt.Sprintf(`MATCH (a:N {idx: %d})-[:link]->(b)-[:link]->(c) RETURN b.idx AS b, c.idx AS c`, k)
				},
				want: func(g *refGraph, _ *naming, k int) result { return g.twoHop(k) },
			},
			{
				name: "gql.triangle", engine: "neograph", weight: 1, zone: zoneTwoHop, cols: []string{"b", "c"},
				stmt: func(_ *naming, k, _ int) string {
					return fmt.Sprintf(`MATCH (a:N {idx: %d})-[:link]->(b)-[:link]->(c), (a)-[:link]->(c) RETURN b.idx AS b, c.idx AS c`, k)
				},
				want: func(g *refGraph, _ *naming, k int) result { return g.triangles(k) },
			},
			{
				name: "gql.hop2group", engine: "neograph", weight: 1, zone: zoneTwoHop, ordered: true, cols: []string{"c", "n"},
				stmt: func(_ *naming, k, _ int) string {
					return fmt.Sprintf(`MATCH (a:N {idx: %d})-[:link]-(b)-[:link]-(c) RETURN c.idx AS c, count(*) AS n ORDER BY n DESC, c LIMIT 10`, k)
				},
				want: func(g *refGraph, _ *naming, k int) result { return g.undirectedTopC(k, 10) },
			},
		},
	},
	{
		name:  "mixed_rw",
		why:   "90% indexed reads, 10% writes: writers take the exclusive lock and force a statistics rebuild",
		nodes: 10000, engines: []string{"neograph"},
		warm: 50, checkEvery: 8,
		shapes: []shape{
			with(neoPoint, 9, zoneRead),
			with(neoHop1, 9, zoneRead),
			{
				name: "gql.set", engine: "neograph", weight: 1, write: true, zone: zoneWrite,
				stmt: func(_ *naming, k, v int) string { return fmt.Sprintf(`MATCH (a:N {idx: %d}) SET a.w = %d`, k, v) },
				aux:  func(rng *rand.Rand, _, _ int) int { return rng.Intn(math.MaxInt32) },
			},
			{
				name: "gql.create", engine: "neograph", weight: 1, write: true, zone: zoneWrite,
				stmt: func(_ *naming, k, to int) string {
					return fmt.Sprintf(`MATCH (a:N {idx: %d}), (b:N {idx: %d}) CREATE (a)-[:link]->(b)`, k, to)
				},
				aux: func(rng *rand.Rand, k, nodes int) int {
					to := rng.Intn(nodes - 1)
					if to >= k {
						to++ // any node but the source
					}
					return to
				},
			},
		},
	},
	{
		name:  "cached_disk",
		why:   "Zipf-skewed reads of a disk-backed engine with an 8 MiB cache: the pager, kvgraph and cache tiers are on the path",
		nodes: 2000, engines: []string{"neograph"}, disk: true, cacheBytes: 8 << 20, binary: true, zipf: true,
		warm: 1000, checkEvery: 16,
		shapes: []shape{
			with(neoHop1, 1, zoneAll),
			{
				name: "gql.hop2count", engine: "neograph", weight: 1, cols: []string{"n"},
				stmt: func(_ *naming, k, _ int) string {
					return fmt.Sprintf(`MATCH (a:N {idx: %d})-[:link]->(b)-[:link]->(c) RETURN count(*) AS n`, k)
				},
				want: func(g *refGraph, _ *naming, k int) result { return g.twoHopCount(k) },
			},
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// request is one generated statement.
type request struct {
	shape  *shape
	key    int
	aux    int // SET value or CREATE target
	stmt   string
	engine string
	check  bool // sampled for the output check
}

// keySampler draws node keys for one shape.
type keySampler interface{ next() int }

// quasiUniform draws keys uniformly over nodes with a low-discrepancy
// (golden-ratio) sequence over the nodes in neighborhood-weight order: each
// run touches hubs and leaves in the same proportions, so R-MAT's heavy
// tail does not make one run's work differ from the next by chance.
type quasiUniform struct {
	nodes []int
	u     float64
}

const goldenFrac = 0.6180339887498949

func (q *quasiUniform) next() int {
	k := q.nodes[int(q.u*float64(len(q.nodes)))]
	q.u += goldenFrac
	if q.u >= 1 {
		q.u--
	}
	return k
}

// zipfKeys draws Zipf-skewed ranks (s = 1.1) over a seeded node order.
type zipfKeys struct {
	nodes []int
	z     *rand.Zipf
}

func (z *zipfKeys) next() int { return z.nodes[z.z.Uint64()] }

// keyOrder is the shared per-graph node order the samplers index: nodes by
// neighborhood weight for uniform keys, a seeded permutation for Zipf keys
// (both clients share it, so they share hot keys).
func keyOrder(w *workload, g *refGraph, seed int64) []int {
	n := g.nodes()
	if w.zipf {
		return rand.New(rand.NewSource(seed)).Perm(n)
	}
	weights := make([]int, n)
	order := make([]int, n)
	for k := range order {
		order[k] = k
		weights[k] = g.neighborhoodWeight(k)
	}
	sort.SliceStable(order, func(i, j int) bool { return weights[order[i]] < weights[order[j]] })
	return order
}

// stream generates one client's statements, deterministically from the
// seed, the client number and whether it is the warm-up stream. The key
// order depends on the seed alone, so warm-up and window share hot keys.
type stream struct {
	w       *workload
	names   *naming
	rng     *rand.Rand
	samples []keySampler // per shape
	block   []int        // shape indices left in the current block
	nodes   int
}

func newStream(w *workload, g *refGraph, names *naming, seed int64, client int, warmup bool) *stream {
	order := keyOrder(w, g, seed)
	salt := int64(1)
	if warmup {
		salt = 2
	}
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)*104729 + salt))
	s := &stream{w: w, names: names, rng: rng, nodes: len(order)}
	for i := range w.shapes {
		sh := &w.shapes[i]
		var zoned []int
		for _, k := range order {
			if sh.zone.has(g, k, client) {
				zoned = append(zoned, k)
			}
		}
		if w.zipf {
			s.samples = append(s.samples, &zipfKeys{nodes: zoned, z: rand.NewZipf(rng, 1.1, 1, uint64(len(zoned)-1))})
		} else {
			s.samples = append(s.samples, &quasiUniform{nodes: zoned, u: rng.Float64()})
		}
	}
	return s
}

// next draws the next statement. Shapes come in shuffled blocks holding
// each shape exactly weight times, so every stretch of the stream has the
// stated mix, not only its average; in mixed_rw each client writes once in
// every ten requests. reads skips write shapes (warm-up must not change the
// graph the reference describes).
func (s *stream) next(reads bool) request {
	for {
		if len(s.block) == 0 {
			for i, sh := range s.w.shapes {
				for j := 0; j < sh.weight; j++ {
					s.block = append(s.block, i)
				}
			}
			s.rng.Shuffle(len(s.block), func(a, b int) { s.block[a], s.block[b] = s.block[b], s.block[a] })
		}
		i := s.block[len(s.block)-1]
		s.block = s.block[:len(s.block)-1]
		if sh := &s.w.shapes[i]; !reads || !sh.write {
			return s.build(i, sh)
		}
	}
}

func (s *stream) build(i int, sh *shape) request {
	r := request{shape: sh, key: s.samples[i].next(), engine: sh.engine}
	if sh.write {
		r.aux = sh.aux(s.rng, r.key, s.nodes)
	} else {
		r.check = s.rng.Intn(s.w.checkEvery) == 0
	}
	r.stmt = sh.stmt(s.names, r.key, r.aux)
	return r
}
