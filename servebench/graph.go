package main

import (
	"fmt"
	"sort"
	"strconv"

	"gdbm/internal/engine"
	"gdbm/internal/model"
)

// refGraph is the generated graph exactly as the generator emitted it,
// indexed by node creation order. Every expected answer the checker uses is
// computed from it, never from an engine.
type refGraph struct {
	weight  []float64
	out, in [][]int32 // one entry per edge, so parallel edges repeat
}

func (g *refGraph) nodes() int { return len(g.weight) }

// degree is the Both-direction edge count of node k.
func (g *refGraph) degree(k int) int { return len(g.out[k]) + len(g.in[k]) }

// tee is the engine.Loader the benchmark seeds each engine through: it
// forwards every call and records the node IDs the engine returned and the
// generator's own node and edge lists.
type tee struct {
	inner engine.Loader
	ids   []model.NodeID
	index map[model.NodeID]int32
	g     refGraph
}

func newTee(inner engine.Loader) *tee {
	return &tee{inner: inner, index: map[model.NodeID]int32{}}
}

func (t *tee) LoadNode(label string, props model.Properties) (model.NodeID, error) {
	id, err := t.inner.LoadNode(label, props)
	if err != nil {
		return 0, err
	}
	w, ok := props.Get("weight").AsFloat()
	if !ok {
		return 0, fmt.Errorf("generated node %d has no weight", len(t.ids))
	}
	t.index[id] = int32(len(t.ids))
	t.ids = append(t.ids, id)
	t.g.weight = append(t.g.weight, w)
	t.g.out = append(t.g.out, nil)
	t.g.in = append(t.g.in, nil)
	return id, nil
}

func (t *tee) LoadEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error) {
	a, okA := t.index[from]
	b, okB := t.index[to]
	if !okA || !okB {
		return 0, fmt.Errorf("edge %d->%d names a node the loader never returned", from, to)
	}
	t.g.out[a] = append(t.g.out[a], b)
	t.g.in[b] = append(t.g.in[b], a)
	return t.inner.LoadEdge(label, from, to, props)
}

// --- reference answers ---
//
// A result is a list of rows of canonical value strings (see canon). The
// engines match patterns under homomorphism semantics, so a pattern binds
// one row per edge walk: parallel edges repeat rows and an undirected walk
// may return to its start.

type result [][]string

func intRow(vs ...int) []string {
	row := make([]string, len(vs))
	for i, v := range vs {
		row[i] = strconv.Itoa(v)
	}
	return row
}

func (g *refGraph) pointRead(k int) result {
	return result{{strconv.Itoa(k), canon(g.weight[k])}}
}

func (g *refGraph) outNeighbors(k int) result {
	var res result
	for _, b := range g.out[k] {
		res = append(res, intRow(int(b)))
	}
	return res
}

func (g *refGraph) twoHop(a int) result {
	var res result
	for _, b := range g.out[a] {
		for _, c := range g.out[b] {
			res = append(res, intRow(int(b), int(c)))
		}
	}
	return res
}

func (g *refGraph) twoHopCount(a int) result {
	n := 0
	for _, b := range g.out[a] {
		n += len(g.out[b])
	}
	return result{intRow(n)}
}

// triangles closes a->b->c with every a->c edge: one row per edge triple.
func (g *refGraph) triangles(a int) result {
	closing := map[int32]int{}
	for _, c := range g.out[a] {
		closing[c]++
	}
	var res result
	for _, b := range g.out[a] {
		for _, c := range g.out[b] {
			for i := 0; i < closing[c]; i++ {
				res = append(res, intRow(int(b), int(c)))
			}
		}
	}
	return res
}

// undirectedTopC counts undirected two-edge walks a-b-c per c and keeps the
// limit largest counts, ties broken by ascending c.
func (g *refGraph) undirectedTopC(a, limit int) result {
	counts := map[int32]int{}
	step := func(n int32, fn func(int32)) {
		for _, x := range g.out[n] {
			fn(x)
		}
		for _, x := range g.in[n] {
			fn(x)
		}
	}
	step(int32(a), func(b int32) { step(b, func(c int32) { counts[c]++ }) })
	type cn struct {
		c int32
		n int
	}
	all := make([]cn, 0, len(counts))
	for c, n := range counts {
		all = append(all, cn{c, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].c < all[j].c
	})
	if len(all) > limit {
		all = all[:limit]
	}
	var res result
	for _, x := range all {
		res = append(res, intRow(int(x.c), x.n))
	}
	return res
}

// distinctNeighbors lists the distinct nodes adjacent to k in the given
// adjacency lists, mapped through name.
func distinctNeighbors(k int, name func(int32) string, lists ...[][]int32) result {
	seen := map[int32]bool{}
	var res result
	for _, l := range lists {
		for _, n := range l[k] {
			if int(n) == k || seen[n] {
				continue
			}
			seen[n] = true
			res = append(res, []string{name(n)})
		}
	}
	return res
}

func (g *refGraph) edgeCount(a, b int) int {
	n := 0
	for _, x := range g.out[a] {
		if int(x) == b {
			n++
		}
	}
	return n
}

// neighborhoodWeight ranks nodes by how much a neighborhood query starting
// there touches: the node's degree plus its neighbors' degrees. Key samplers
// walk nodes in this order so every run sees the same cost distribution.
func (g *refGraph) neighborhoodWeight(k int) int {
	w := g.degree(k)
	for _, b := range g.out[k] {
		w += g.degree(int(b))
	}
	for _, b := range g.in[k] {
		w += g.degree(int(b))
	}
	return w
}
