package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"gdbm/internal/server/wire"
)

// canon renders one result value so that a JSON-decoded value, a
// wire-decoded value and a reference value compare equal exactly when they
// are the same value: numbers in Go's shortest round-trip form, strings
// quoted.
func canon(v any) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case bool:
		return strconv.FormatBool(x)
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return strconv.FormatInt(i, 10)
		}
		if f, err := x.Float64(); err == nil {
			return strconv.FormatFloat(f, 'g', -1, 64)
		}
		return "number:" + x.String()
	case string:
		return strconv.Quote(x)
	}
	return fmt.Sprintf("%T:%v", v, v)
}

// decoded is a response body reduced to its columns and canonical rows.
type decoded struct {
	cols []string
	rows result
}

// decodeBody parses a complete response body in either encoding. A binary
// body goes through wire.Collect, so a stream without its End frame is an
// error, never a short result.
func decodeBody(binary bool, body []byte) (decoded, error) {
	if binary {
		res, err := wire.Collect(bytes.NewReader(body))
		if err != nil {
			return decoded{}, err
		}
		if res.End.Rows != len(res.Rows) {
			return decoded{}, fmt.Errorf("end frame counts %d rows, stream carried %d", res.End.Rows, len(res.Rows))
		}
		out := decoded{cols: res.Cols, rows: make(result, len(res.Rows))}
		for i, row := range res.Rows {
			r := make([]string, len(row))
			for j, v := range row {
				r[j] = canon(v.Native())
			}
			out.rows[i] = r
		}
		return out, nil
	}
	var doc struct {
		Cols []string `json:"cols"`
		Rows [][]any  `json:"rows"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		return decoded{}, err
	}
	out := decoded{cols: doc.Cols, rows: make(result, len(doc.Rows))}
	for i, row := range doc.Rows {
		r := make([]string, len(row))
		for j, v := range row {
			r[j] = canon(v)
		}
		out.rows[i] = r
	}
	return out, nil
}

// compare checks a decoded answer against the reference: same columns and,
// for ordered statements, the same rows in the same order; otherwise the
// same multiset of rows.
func compare(got decoded, wantCols []string, want result, ordered bool) error {
	if strings.Join(got.cols, ",") != strings.Join(wantCols, ",") {
		return fmt.Errorf("columns %v, want %v", got.cols, wantCols)
	}
	if len(got.rows) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got.rows), len(want))
	}
	g, w := flatten(got.rows), flatten(want)
	if !ordered {
		sort.Strings(g)
		sort.Strings(w)
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("row %q, want %q", g[i], w[i])
		}
	}
	return nil
}

func flatten(rows result) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "\x1f")
	}
	return out
}
