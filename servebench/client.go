package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"gdbm/internal/server/wire"
)

// clients is the closed loop's size: callers that each hold one keep-alive
// connection and wait for their reply, like an application server with a
// small pool.
const clients = 2

// client is one closed-loop caller.
type client struct {
	hc     *http.Client
	tr     *http.Transport
	url    string
	binary bool
	buf    bytes.Buffer
}

func newClient(url string, binary bool, dials *atomic.Int64) *client {
	var d net.Dialer
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr}, tr: tr, url: url + "/v1/query", binary: binary}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// outcome is one completed request as the client saw it.
type outcome struct {
	latency time.Duration
	body    []byte // valid until the client's next request
	err     error  // transport failure, non-200 status or malformed body
}

// recordHeader carries the traced run's per-request record key.
const recordHeader = "X-Servebench-Record"

// do sends one statement and reads the whole response. Latency runs from
// the send to the last body byte; the body is then checked for
// well-formedness — a binary body through wire.Collect, so a truncated
// stream is a failure — outside the timed interval.
func (c *client) do(ctx context.Context, r request, recKey string) outcome {
	body, err := json.Marshal(struct {
		Stmt   string `json:"stmt"`
		Engine string `json:"engine"`
	}{r.stmt, r.engine})
	if err != nil {
		return outcome{err: err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if c.binary {
		req.Header.Set("Accept", wire.ContentType)
	}
	if recKey != "" {
		req.Header.Set(recordHeader, recKey)
	}
	c.buf.Reset()
	began := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return outcome{err: err}
	}
	_, err = c.buf.ReadFrom(resp.Body)
	o := outcome{latency: time.Since(began), body: c.buf.Bytes()}
	resp.Body.Close()
	switch {
	case err != nil:
		o.err = err
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(o.body))
	case c.binary:
		if _, err := wire.Collect(bytes.NewReader(o.body)); err != nil {
			o.err = fmt.Errorf("binary body: %w", err)
		}
	case !json.Valid(o.body):
		o.err = fmt.Errorf("malformed JSON body")
	}
	return o
}

// sample is a response kept for the output check after the window.
type sample struct {
	req  request
	body []byte
}

// clientRun is everything one client saw during the measured window.
type clientRun struct {
	attempted int
	failed    int
	failures  map[string]int // first line of each failure, counted
	latencies []time.Duration
	bytes     int64
	samples   []sample
	kept      int       // bytes held in samples
	writes    []request // acknowledged writes, in the client's order
	recs      []*record // traced runs only
}

// maxSampleBytes caps the response bytes one client keeps for checking, so
// a run of large results cannot grow the heap without bound.
const maxSampleBytes = 16 << 20

// run drives the closed loop until the deadline: each request is sent only
// after the previous reply has been read in full.
func (c *client) run(s *stream, deadline time.Time, recs *recordTable, id int) *clientRun {
	cr := &clientRun{failures: map[string]int{}}
	ctx := context.Background()
	for seq := 0; time.Now().Before(deadline); seq++ {
		r := s.next(false)
		var key string
		if recs != nil {
			key = fmt.Sprintf("%d-%d", id, seq)
			recs.begin(key)
		}
		o := c.do(ctx, r, key)
		cr.attempted++
		if recs != nil {
			if rec := recs.end(key); rec != nil {
				rec.client, rec.bytes = o.latency, len(o.body)
				cr.recs = append(cr.recs, rec)
			}
		}
		if o.err != nil {
			cr.failed++
			if len(cr.failures) < 16 {
				cr.failures[r.shape.name+": "+firstLine(o.err.Error())]++
			}
			continue
		}
		cr.latencies = append(cr.latencies, o.latency)
		cr.bytes += int64(len(o.body))
		switch {
		case r.shape.write:
			cr.writes = append(cr.writes, r)
		case r.check && cr.kept+len(o.body) <= maxSampleBytes:
			cr.samples = append(cr.samples, sample{r, bytes.Clone(o.body)})
			cr.kept += len(o.body)
		}
	}
	return cr
}

func firstLine(s string) string {
	s, _, _ = strings.Cut(s, "\n")
	if len(s) > 160 {
		s = s[:160]
	}
	return s
}

// get fetches a small JSON document on a connection outside the load
// clients, so it never counts against their connection discipline.
func get(url string, v any) error {
	hc := &http.Client{Transport: &http.Transport{}, Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.Unmarshal(data, v)
}
