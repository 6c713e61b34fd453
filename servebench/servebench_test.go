package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"gdbm/internal/gen"
	"gdbm/internal/model"
	"gdbm/internal/server/wire"
)

// small returns a copy of the named workload on a graph small enough for
// unit tests.
func small(t *testing.T, name string) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	c := *w
	c.nodes, c.warm = 300, 5
	return &c
}

// memNaming seeds the generator into a MemSink through the tee, giving a
// reference graph and naming without any engine.
func memNaming(t *testing.T, nodes int, seed int64) (*refGraph, *naming) {
	t.Helper()
	tt := newTee(&gen.MemSink{})
	if _, err := gen.Generate(gen.Spec{Kind: gen.RMAT, Nodes: nodes, EdgesPerNode: 4, Seed: seed}, tt); err != nil {
		t.Fatal(err)
	}
	n := &naming{ids: map[string][]model.NodeID{}, terms: make([]string, nodes)}
	for _, e := range []string{"neograph", "sonesdb", "triplestore"} {
		n.ids[e] = tt.ids
	}
	for k := range n.terms {
		n.terms[k] = "_:t" + string(rune('a'+k%26))
	}
	return &tt.g, n
}

func draw(w *workload, g *refGraph, n *naming, seed int64, client, count int) []request {
	s := newStream(w, g, n, seed, client, false)
	out := make([]request, count)
	for i := range out {
		out[i] = s.next(false)
	}
	return out
}

func TestStreamsAreDeterministicUnderTheSeed(t *testing.T) {
	g, n := memNaming(t, 2000, 7)
	for _, w := range workloads {
		a := draw(w, g, n, 7, 0, 3000)
		b := draw(w, g, n, 7, 0, 3000)
		other := draw(w, g, n, 8, 0, 3000)
		same := 0
		for i := range a {
			if a[i].stmt != b[i].stmt || a[i].check != b[i].check {
				t.Fatalf("%s: statement %d differs under one seed: %q vs %q", w.name, i, a[i].stmt, b[i].stmt)
			}
			if a[i].stmt == other[i].stmt {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("%s: another seed generated the same stream", w.name)
		}
	}
}

// TestMixSharesMatchTheStatedMix pins the shares the workloads document:
// lookup 1/6 per shape (two per engine), traverse 1/3 per shape, mixed_rw
// 45/45 reads and 5/5 writes, cached_disk 1/2 per shape.
func TestMixSharesMatchTheStatedMix(t *testing.T) {
	stated := map[string]map[string]float64{
		"lookup": {"gql.point": 1.0 / 6, "gql.hop1": 1.0 / 6, "gsql.degree": 1.0 / 6,
			"gsql.neighbors": 1.0 / 6, "sparqlish.out": 1.0 / 6, "sparqlish.in": 1.0 / 6},
		"traverse":    {"gql.hop2": 1.0 / 3, "gql.triangle": 1.0 / 3, "gql.hop2group": 1.0 / 3},
		"mixed_rw":    {"gql.point": 0.45, "gql.hop1": 0.45, "gql.set": 0.05, "gql.create": 0.05},
		"cached_disk": {"gql.hop1": 0.5, "gql.hop2count": 0.5},
	}
	g, n := memNaming(t, 2000, 3)
	const draws = 60000
	for _, w := range workloads {
		counts := map[string]int{}
		for _, r := range draw(w, g, n, 3, 1, draws) {
			counts[r.shape.name]++
		}
		if len(counts) != len(stated[w.name]) {
			t.Errorf("%s: drew shapes %v, stated %v", w.name, counts, stated[w.name])
		}
		for shape, share := range stated[w.name] {
			got := float64(counts[shape]) / draws
			if math.Abs(got-share) > 0.01 {
				t.Errorf("%s: %s share %.4f, stated %.4f", w.name, shape, got, share)
			}
		}
	}
}

func TestWritesStayInTheirClientsZone(t *testing.T) {
	w := small(t, "mixed_rw")
	g, n := memNaming(t, 2000, 5)
	for c := 0; c < clients; c++ {
		for _, r := range draw(w, g, n, 5, c, 5000) {
			switch {
			case r.shape.write && r.key%20 != 10*c:
				t.Fatalf("client %d wrote from node %d outside its zone", c, r.key)
			case !r.shape.write && r.key%10 == 0:
				t.Fatalf("client %d read from write-zone node %d", c, r.key)
			case r.shape.write && r.aux == r.key && r.shape.name == "gql.create":
				t.Fatalf("client %d created a self-loop on %d", c, r.key)
			}
		}
	}
}

// startSmall serves a small copy of a workload.
func startSmall(t *testing.T, w *workload, traced bool) *instance {
	t.Helper()
	inst, err := start(w, 11, traced, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.close)
	return inst
}

// TestReferencesMatchTheEngines sends every read shape of every workload
// through the served handler and checks each answer against the reference.
func TestReferencesMatchTheEngines(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			w := small(t, wl.name)
			inst := startSmall(t, w, false)
			s := newStream(w, inst.graph, inst.names, 11, 0, false)
			for i := 0; i < 300; i++ {
				r := s.next(true)
				o := inst.clients[0].do(context.Background(), r, "")
				if o.err != nil {
					t.Fatalf("%s: %v", r.stmt, o.err)
				}
				got, err := decodeBody(w.binary, o.body)
				if err != nil {
					t.Fatalf("%s: %v", r.stmt, err)
				}
				sh := r.shape
				if err := compare(got, sh.cols, sh.want(inst.graph, inst.names, r.key), sh.ordered); err != nil {
					t.Fatalf("%s: %v", r.stmt, err)
				}
			}
		})
	}
}

// TestCheckerConvicts corrupts real responses: a changed row value must
// fail the comparison, and a binary stream cut anywhere must fail to decode
// rather than pass as a short result.
func TestCheckerConvicts(t *testing.T) {
	for name, shapeName := range map[string]string{"mixed_rw": "gql.hop1", "traverse": "gql.hop2"} { // JSON and binary
		w := small(t, name)
		inst := startSmall(t, w, false)
		// The hub with the most rows gives the corruption something to hit.
		hub := keyOrder(w, inst.graph, 11)[w.nodes-1]
		var sh *shape
		for i := range w.shapes {
			if w.shapes[i].name == shapeName {
				sh = &w.shapes[i]
			}
		}
		r := request{shape: sh, key: hub, stmt: sh.stmt(inst.names, hub, 0), engine: sh.engine}
		o := inst.clients[0].do(context.Background(), r, "")
		if o.err != nil {
			t.Fatal(o.err)
		}
		body := bytes.Clone(o.body)
		want := sh.want(inst.graph, inst.names, hub)
		got, err := decodeBody(w.binary, body)
		if err != nil {
			t.Fatal(err)
		}
		if err := compare(got, sh.cols, want, sh.ordered); err != nil {
			t.Fatalf("%s: correct answer convicted: %v", name, err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: hub %d has no rows to corrupt", name, hub)
		}
		row := make([]string, len(sh.cols))
		for i := range row {
			row[i] = "-1"
		}
		corrupt := decoded{cols: got.cols, rows: append(result{row}, got.rows[1:]...)}
		if compare(corrupt, sh.cols, want, sh.ordered) == nil {
			t.Errorf("%s: corrupted row passed the check", name)
		}
		if !w.binary {
			bad := bytes.Replace(body, []byte(`[`+got.rows[0][0]), []byte(`[-1`), 1)
			if g, err := decodeBody(false, bad); err == nil && compare(g, sh.cols, want, sh.ordered) == nil {
				t.Errorf("%s: corrupted JSON body passed the check", name)
			}
			continue
		}
		for cut := 1; cut < len(body); cut += max(1, len(body)/64) {
			if _, err := decodeBody(true, body[:cut]); err == nil {
				t.Fatalf("binary body truncated to %d of %d bytes decoded cleanly", cut, len(body))
			}
		}
	}
}

// TestObservedIsATwinOfTheBareEngine runs the same statements, writes
// included, through a bare and a traced instance: the decorator must not
// change a byte of any answer.
func TestObservedIsATwinOfTheBareEngine(t *testing.T) {
	for _, name := range []string{"lookup", "traverse", "mixed_rw"} {
		w := small(t, name)
		bare, traced := startSmall(t, w, false), startSmall(t, w, true)
		if _, ok := traced.served["neograph"].(*observed); !ok {
			t.Fatalf("%s: traced instance serves %T", name, traced.served["neograph"])
		}
		s := newStream(w, bare.graph, bare.names, 11, 0, false)
		for i := 0; i < 200; i++ {
			r := s.next(false)
			a := bare.clients[0].do(context.Background(), r, "")
			if a.err != nil {
				t.Fatalf("%s: %v", r.stmt, a.err)
			}
			want := answerBytes(t, w.binary, a.body)
			key := "twin"
			traced.recs.begin(key)
			b := traced.clients[0].do(context.Background(), r, key)
			rec := traced.recs.end(key)
			if b.err != nil {
				t.Fatalf("%s traced: %v", r.stmt, b.err)
			}
			if got := answerBytes(t, w.binary, b.body); got != want {
				t.Fatalf("%s: traced answer differs\n got %s\nwant %s", r.stmt, got, want)
			}
			if rec == nil || rec.engine == 0 || rec.handler < rec.engine {
				t.Fatalf("%s: traced record not filled: %+v", r.stmt, rec)
			}
		}
	}
}

// answerBytes strips the server-side elapsed time, the one part of a
// response that legitimately differs between two runs of one statement.
func answerBytes(t *testing.T, binary bool, body []byte) string {
	t.Helper()
	if !binary {
		i := bytes.LastIndex(body, []byte(`,"elapsed_ms":`))
		if i < 0 {
			t.Fatalf("JSON body without elapsed_ms: %s", body)
		}
		return string(body[:i])
	}
	res, err := wire.Collect(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(strings.Join(res.Cols, ","))
	for _, row := range res.Rows {
		for _, v := range row {
			enc, err := v.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			b.Write(enc)
		}
	}
	return b.String()
}

func TestAttributionFlagsBrokenNesting(t *testing.T) {
	const us = time.Microsecond
	ok := &record{client: 100 * us, handler: 80 * us, engine: 50 * us, sink: 10 * us, depth0: 40 * us}
	bad := &record{client: 100 * us, handler: 120 * us, engine: 50 * us, sink: 10 * us}
	spans := &record{client: 100 * us, handler: 80 * us, engine: 50 * us, sink: 10 * us, depth0: 52 * us}
	inst := &instance{}
	if lr := layers(inst, []*record{ok}, snapshot{}, snapshot{}, []setupTimes{{}}, nil); len(lr.problems) != 0 {
		t.Errorf("well-nested record flagged: %v", lr.problems)
	}
	for _, r := range []*record{bad, spans} {
		if lr := layers(inst, []*record{r}, snapshot{}, snapshot{}, []setupTimes{{}}, nil); len(lr.problems) == 0 {
			t.Errorf("record %+v passed the attribution check", r)
		}
	}
}

// TestBenchmarkFileNamesTheReportedMetrics keeps BENCHMARK.json and the
// program in step: the workloads, and every metric with its unit.
func TestBenchmarkFileNamesTheReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		prog []metricSpec
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.file) != len(c.prog) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.file), len(c.prog))
		}
		for i, m := range c.file {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("metric %d: %s %s vs %s %s", i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}
