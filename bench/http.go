package main

// Loopback HTTP rig: the program's handler behind a net/http server on
// 127.0.0.1:0 and a closed-loop generator of raw keep-alive HTTP/1.1
// clients (pre-built request bytes, minimal response parse), so the
// measured time is the program's and not net/http.Client's.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mlcr/internal/api"
)

// latencyLimit is the per-request limit of the serving workloads: a
// request answered later than this counts as missing from ops_per_s.
const latencyLimit = time.Millisecond

// clientCount is the closed-loop client (= connection) count: the
// generator shares the box with the server, so more clients than cores
// would only measure the scheduler.
func clientCount() int {
	if n := runtime.GOMAXPROCS(0); n < 2 {
		return n
	}
	return 2
}

type client struct {
	conn net.Conn
	br   *bufio.Reader
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 16<<10)}, nil
}

// readResponse parses one HTTP/1.1 response with a Content-Length body.
// The body aliases the read buffer and is valid until the next read.
func (c *client) readResponse() (status int, body []byte, err error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length := -1
	for {
		if line, err = c.br.ReadSlice('\n'); err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		const key = "content-length:"
		if len(line) > len(key) && bytes.EqualFold(line[:len(key)], []byte(key)) {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(key):]))); err != nil {
				return 0, nil, fmt.Errorf("bad content-length %q", line)
			}
		}
	}
	if length < 0 {
		return 0, nil, errors.New("response without Content-Length")
	}
	if body, err = c.br.Peek(length); err != nil {
		return 0, nil, err
	}
	_, err = c.br.Discard(length)
	return status, body, err
}

// roundTrip sends one bodyless request (GET /stats, POST /reset).
func (c *client) roundTrip(method, path string) (int, []byte, error) {
	if _, err := fmt.Fprintf(c.conn, "%s %s HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n", method, path); err != nil {
		return 0, nil, err
	}
	return c.readResponse()
}

// echoedFn extracts fn_id from an invoke response body.
func echoedFn(body []byte) int {
	const key = `"fn_id":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return -1
	}
	n, seen := 0, false
	for _, ch := range body[i+len(key):] {
		if ch < '0' || ch > '9' {
			break
		}
		n, seen = n*10+int(ch-'0'), true
	}
	if !seen {
		return -1
	}
	return n
}

// rig is one served gateway with its connected clients.
type rig struct {
	handler *tracedHandler // nil when untraced
	srv     *http.Server
	served  chan error
	clients []*client
	reqs    []request
	buf     []byte
	off     []uint32
	spans   []span // client.request spans (traced rigs)
}

// newRig serves the program's handler (through the tracing handler when
// traced) and connects the clients.
func newRig(h http.Handler, reqs []request, traced bool) (*rig, error) {
	r := &rig{reqs: reqs, served: make(chan error, 1)}
	if traced {
		r.handler = &tracedHandler{inner: h}
		h = r.handler
	}
	r.buf, r.off = buildRequestBytes(reqs, traced)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.srv = &http.Server{Handler: h}
	go func() { r.served <- r.srv.Serve(ln) }()
	for i := 0; i < clientCount(); i++ {
		c, err := dial(ln.Addr().String())
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, c)
	}
	return r, nil
}

// close drops the connections, stops the server and waits for its
// accept loop to end.
func (r *rig) close() {
	for _, c := range r.clients {
		c.conn.Close()
	}
	r.srv.Close()
	<-r.served
}

// httpLap is what the generator saw during one pass over the sequence.
type httpLap struct {
	sent      int // requests attempted
	failed    int // not 200, wrong fn_id echoed, or transport error
	overLimit int // answered right but later than latencyLimit
	wall      time.Duration
	lat       []int32 // ns per answered request, sorted
	latSum    int64
	stats     api.GatewayStatsResponse
}

// lap resets the gateway over HTTP, drives the request sequence closed
// loop — all of it, or until the deadline when one is set (warm-up) —
// and reads GET /stats. The clients draw from one shared cursor so the
// virtual arrival stamps reach the gateway ordered to within one
// position.
func (r *rig) lap(deadline time.Time) (*httpLap, error) {
	n := len(r.reqs)
	if status, _, err := r.clients[0].roundTrip("POST", "/reset"); err != nil || status != 200 {
		return nil, fmt.Errorf("POST /reset: status %d: %v", status, err)
	}
	type part struct {
		lat             []int32
		sum             int64
		sent, bad, over int
		spans           []span
		firstErr        error
	}
	parts := make([]part, len(r.clients))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k, c := range r.clients {
		wg.Add(1)
		go func(p *part, c *client) {
			defer wg.Done()
			p.lat = make([]int32, 0, n/len(r.clients)+n/8)
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				if !deadline.IsZero() && t0.After(deadline) {
					return
				}
				p.sent++
				if _, err := c.conn.Write(r.buf[r.off[i]:r.off[i+1]]); err != nil {
					p.bad, p.firstErr = p.bad+1, err
					return
				}
				status, body, err := c.readResponse()
				t1 := time.Now()
				if err != nil {
					p.bad, p.firstErr = p.bad+1, err
					return
				}
				if status != 200 || echoedFn(body) != r.reqs[i].fn {
					p.bad++
					if p.firstErr == nil {
						p.firstErr = fmt.Errorf("request %d: status %d body %q", i, status, body)
					}
					continue
				}
				d := t1.Sub(t0)
				if d > latencyLimit {
					p.over++
				}
				p.sum += int64(d)
				if d > 1<<31-1 {
					d = 1<<31 - 1
				}
				p.lat = append(p.lat, int32(d))
				if r.handler != nil && i%httpSampleEvery == 0 {
					p.spans = append(p.spans, span{Name: "client.request", Req: int64(i), Start: since(t0), End: since(t1)})
				}
			}
		}(&parts[k], c)
	}
	wg.Wait()
	out := &httpLap{wall: time.Since(start)}
	var firstErr error
	for i := range parts {
		p := &parts[i]
		out.sent += p.sent
		out.failed += p.bad
		out.overLimit += p.over
		out.latSum += p.sum
		out.lat = append(out.lat, p.lat...)
		r.spans = append(r.spans, p.spans...)
		if firstErr == nil {
			firstErr = p.firstErr
		}
	}
	sort.Slice(out.lat, func(i, j int) bool { return out.lat[i] < out.lat[j] })
	if firstErr != nil {
		return out, firstErr
	}
	status, body, err := r.clients[0].roundTrip("GET", "/stats")
	if err != nil || status != 200 {
		return out, fmt.Errorf("GET /stats: status %d: %v", status, err)
	}
	if err := json.Unmarshal(body, &out.stats); err != nil {
		return out, fmt.Errorf("GET /stats: %w", err)
	}
	return out, checkStats(&out.stats, out.sent-out.failed)
}

// checkStats holds the gateway's own accounting against what the
// clients saw.
func checkStats(s *api.GatewayStatsResponse, answered int) error {
	switch {
	case s.Invocations != answered:
		return fmt.Errorf("/stats invocations %d != %d requests answered", s.Invocations, answered)
	case s.ColdStarts+s.WarmStarts != s.Invocations:
		return fmt.Errorf("/stats cold %d + warm %d != invocations %d", s.ColdStarts, s.WarmStarts, s.Invocations)
	case s.ReuseByLevel.L1+s.ReuseByLevel.L2+s.ReuseByLevel.L3 != s.WarmStarts:
		return fmt.Errorf("/stats reuse by level %+v does not sum to warm starts %d", s.ReuseByLevel, s.WarmStarts)
	}
	return nil
}
