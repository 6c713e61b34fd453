package plan

import (
	"gdbm/internal/model"
	"gdbm/internal/query"
)

// Sink receives a query result incrementally: Cols exactly once, then Row
// for every output row in execution order. Either call may return an error
// to stop production — the executor propagates it unchanged, so a sink can
// abort a stream (client disconnect, chunk-budget exhausted) without the
// operator tree finishing its scan. Stream allocates every vals slice it
// hands to Row afresh, and the slice then belongs to the sink, which may
// keep it; Replay hands over the Result's own row slices.
type Sink interface {
	Cols(cols []string) error
	Row(vals []model.Value) error
}

// Stream runs an operator tree and emits the output rows into sink as they
// are produced, under the given column order. It is the incremental twin of
// Collect: both share the same row-projection code, so a streamed execution
// renders byte-identically to a collected one.
func Stream(op Op, src Source, cols []string, sink Sink) error {
	if err := sink.Cols(cols); err != nil {
		return err
	}
	var layout *query.Layout
	slots := make([]int, len(cols))
	return op.Run(src, func(row query.Row) error {
		if row.Layout != layout {
			layout = row.Layout
			for i, c := range cols {
				slots[i] = layout.Slot(c)
			}
		}
		out := make([]model.Value, len(cols))
		for i, s := range slots {
			if s >= 0 {
				out[i] = row.Slots[s].Scalar()
			}
		}
		return sink.Row(out)
	})
}

// Replay feeds an already-materialized result into sink. It adapts cached
// or write-statement results (which exist whole before the first byte can
// be sent) to the streaming delivery path.
func Replay(res *Result, sink Sink) error {
	if err := sink.Cols(res.Cols); err != nil {
		return err
	}
	for _, row := range res.Rows {
		if err := sink.Row(row); err != nil {
			return err
		}
	}
	return nil
}

// collector materializes a stream back into a Result; Collect uses it so
// the collected and streamed paths cannot drift.
type collector struct{ res Result }

func (c *collector) Cols(cols []string) error {
	c.res.Cols = cols
	return nil
}

func (c *collector) Row(vals []model.Value) error {
	c.res.Rows = append(c.res.Rows, vals)
	return nil
}
