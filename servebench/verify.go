package main

import (
	"context"
	"fmt"
)

// checkSamples compares every sampled read against its reference answer.
// A convicted request was counted as completed; it moves to failed.
func (r *runResult) checkSamples(inst *instance, runs []*clientRun) (checked int) {
	for _, cr := range runs {
		for _, s := range cr.samples {
			sh := s.req.shape
			got, err := decodeBody(inst.w.binary, s.body)
			if err == nil {
				err = compare(got, sh.cols, sh.want(inst.graph, inst.names, s.req.key), sh.ordered)
			}
			checked++
			if err != nil {
				r.convict("%s: %v", s.req.stmt, err)
			}
		}
	}
	return checked
}

func (r *runResult) convict(format string, args ...any) {
	r.wrong++
	r.failed++
	r.problem(format, args...)
}

const (
	readSet    = `MATCH (a:N {idx: %d}) RETURN a.w AS w`
	readCreate = `MATCH (a:N {idx: %d})-[:link]->(b:N {idx: %d}) RETURN count(*) AS n`
)

// readBack reads every acknowledged write back through the server after the
// window: each SET node must hold the last value its client wrote, and each
// CREATE pair must carry its generated edges plus every acknowledged create.
// Writes are partitioned by client, so the last write per node is defined.
func (r *runResult) readBack(inst *instance, runs []*clientRun) (writes int, err error) {
	type pair struct{ a, b int }
	lastSet := map[int]int{}
	created := map[pair]int{}
	for _, cr := range runs {
		for _, w := range cr.writes {
			writes++
			switch w.shape.name {
			case "gql.set":
				lastSet[w.key] = w.aux
			case "gql.create":
				created[pair{w.key, w.aux}]++
			default:
				return 0, fmt.Errorf("no read-back for write shape %s", w.shape.name)
			}
		}
	}
	cl := inst.clients[0]
	read := func(stmt string, want result, cols ...string) error {
		o := cl.do(context.Background(), request{shape: &shape{name: "read-back"}, stmt: stmt, engine: "neograph"}, "")
		if o.err != nil {
			return o.err
		}
		got, err := decodeBody(inst.w.binary, o.body)
		if err != nil {
			return err
		}
		return compare(got, cols, want, true)
	}
	for k, v := range lastSet {
		stmt := fmt.Sprintf(readSet, k)
		if err := read(stmt, result{intRow(v)}, "w"); err != nil {
			r.convict("read-back %s: %v", stmt, err)
		}
	}
	for p, n := range created {
		stmt := fmt.Sprintf(readCreate, p.a, p.b)
		if err := read(stmt, result{intRow(inst.graph.edgeCount(p.a, p.b) + n)}, "n"); err != nil {
			r.convict("read-back %s: %v", stmt, err)
		}
	}
	return writes, nil
}
