package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"setdiscovery/internal/wireproto"
)

// Layers, outermost first. A span's parent is the span of the enclosing
// layer for the same exchange; the session layer is a separate replay and
// has no parent.
const (
	layerClient  = "client"
	layerRouter  = "router"
	layerEngine  = "engine"
	layerSession = "session"
)

var parentLayer = map[string]string{layerRouter: layerClient, layerEngine: layerRouter}

// span is one call at one layer boundary. The exchange it belongs to is
// (res, seq): the resource (session or batch) ID and the exchange's number
// within that resource, 0 for the create. Each layer handles a resource's
// exchanges strictly in order, so (res, seq) names the same request at every
// layer.
type span struct {
	layer, op  string
	res        string
	seq        int
	start, end time.Time
	parent     int // index into the tracer's spans; -1 without one
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// byteCounter counts bytes through a set of connections.
type byteCounter struct{ in, out atomic.Int64 }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	seqs  map[string]int // layer + "\x00" + res → next exchange number

	client       byteCounter // the load generator's connections
	routerJSON   byteCounter // router /v1 front, accepted side
	routerStream byteCounter // router stream front, accepted side
	engineJSON   byteCounter // engines' /v1 listeners, accepted side
	engineStream byteCounter // engines' stream listeners, accepted side
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), seqs: make(map[string]int)}
}

// record stores one finished span. A span without a resource ID (an error
// reply) cannot be matched across layers and is kept unnumbered.
func (t *tracer) record(layer, op, res string, start, end time.Time) {
	t.mu.Lock()
	seq := -1
	if res != "" {
		k := layer + "\x00" + res
		seq = t.seqs[k]
		t.seqs[k] = seq + 1
	}
	t.spans = append(t.spans, span{layer: layer, op: op, res: res, seq: seq, start: start, end: end, parent: -1})
	t.mu.Unlock()
}

// reset drops the spans and byte counts so far, so that only the timed
// slice is traced.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.seqs = make(map[string]int)
	t.mu.Unlock()
	for _, c := range t.counters() {
		c.in.Store(0)
		c.out.Store(0)
	}
}

func (t *tracer) counters() map[string]*byteCounter {
	return map[string]*byteCounter{
		"client": &t.client, "router.json": &t.routerJSON, "router.stream": &t.routerStream,
		"engine.json": &t.engineJSON, "engine.stream": &t.engineStream,
	}
}

// byteCounts snapshots the byte counters: name+".in" and name+".out", as
// seen from the counted side of each connection.
func (t *tracer) byteCounts() map[string]int64 {
	out := make(map[string]int64)
	for name, c := range t.counters() {
		out[name+".in"] = c.in.Load()
		out[name+".out"] = c.out.Load()
	}
	return out
}

// link sets every span's parent and returns the spans.
func (t *tracer) link() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	type key struct {
		layer, res string
		seq        int
	}
	idx := make(map[key]int, len(t.spans))
	for i, s := range t.spans {
		if s.seq >= 0 {
			idx[key{s.layer, s.res, s.seq}] = i
		}
	}
	for i, s := range t.spans {
		if p, ok := parentLayer[s.layer]; ok && s.seq >= 0 {
			if j, ok := idx[key{p, s.res, s.seq}]; ok {
				t.spans[i].parent = j
			}
		}
	}
	return t.spans
}

// selfTimes returns, for every span of the layer whose op matches, its
// duration minus the part of it that its children cover.
func selfTimes(spans []span, layer, op string) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	var out []time.Duration
	for i, s := range spans {
		if s.layer != layer || s.op != op {
			continue
		}
		var covered time.Duration
		var ivs [][2]time.Time
		for _, c := range children[i] {
			a, b := spans[c].start, spans[c].end
			if a.Before(s.start) {
				a = s.start
			}
			if b.After(s.end) {
				b = s.end
			}
			if b.After(a) {
				ivs = append(ivs, [2]time.Time{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x][0].Before(ivs[y][0]) })
		var reach time.Time
		for _, iv := range ivs {
			if iv[0].Before(reach) {
				iv[0] = reach
			}
			if iv[1].After(iv[0]) {
				covered += iv[1].Sub(iv[0])
				reach = iv[1]
			}
		}
		out = append(out, s.dur()-covered)
	}
	return out
}

// durations returns the durations of the layer's spans for op.
func durations(spans []span, layer, op string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.layer == layer && s.op == op {
			out = append(out, s.dur())
		}
	}
	return out
}

// write stores the spans as gzipped tab-separated lines: id, parent, layer,
// op, resource, exchange, start and end in nanoseconds since the tracer
// started.
func (t *tracer) write(path string) error {
	spans := t.link()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tparent\tlayer\top\tresource\texchange\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%s\t%s\t%d\t%d\t%d\n", i, s.parent, s.layer, s.op, s.res, s.seq,
			s.start.Sub(t.epoch).Nanoseconds(), s.end.Sub(t.epoch).Nanoseconds())
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countConn counts the bytes through a connection.
type countConn struct {
	net.Conn
	c *byteCounter
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.in.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.out.Add(int64(n))
	return n, err
}

// countListener wraps every accepted connection in a countConn.
type countListener struct {
	net.Listener
	c *byteCounter
}

func (l countListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: conn, c: l.c}, nil
}

// counted returns a listener wrapper counting bytes into c.
func (t *tracer) counted(c *byteCounter) func(net.Listener) net.Listener {
	return func(l net.Listener) net.Listener { return countListener{Listener: l, c: c} }
}

// framed returns a listener wrapper recording the layer's stream spans and
// counting bytes into c.
func (t *tracer) framed(layer string, c *byteCounter) func(net.Listener) net.Listener {
	return func(l net.Listener) net.Listener { return streamListener{Listener: l, t: t, layer: layer, c: c} }
}

// httpLayer wraps a /v1 handler with a span per session request. Probes,
// scrapes and other operational requests pass through untraced.
func (t *tracer) httpLayer(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, res := classifyHTTP(r)
		if op == "" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		if op == "create" {
			cw := &captureWriter{ResponseWriter: w}
			h.ServeHTTP(cw, r)
			var created struct {
				SessionID string `json:"session_id"`
			}
			if json.Unmarshal(cw.body.Bytes(), &created) == nil {
				res = created.SessionID
			}
		} else {
			h.ServeHTTP(w, r)
		}
		t.record(layer, op, res, start, time.Now())
	})
}

// classifyHTTP names a session request's operation and resource.
func classifyHTTP(r *http.Request) (op, res string) {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	if len(parts) < 3 || parts[0] != "v1" {
		return "", ""
	}
	switch {
	case parts[1] == "collections" && len(parts) == 4 && parts[3] == "sessions" && r.Method == http.MethodPost:
		return "create", ""
	case parts[1] != "sessions":
		return "", ""
	case len(parts) == 3 && r.Method == http.MethodDelete:
		return "delete", parts[2]
	case len(parts) == 4 && parts[3] == "answer" && r.Method == http.MethodPost:
		return "answer", parts[2]
	case len(parts) == 4 && parts[3] == "result" && r.Method == http.MethodGet:
		return "result", parts[2]
	}
	return "", ""
}

// captureWriter keeps a copy of the response body.
type captureWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.body.Write(p)
	return c.ResponseWriter.Write(p)
}

// streamListener wraps every accepted stream-plane connection in a
// frameConn, which records a span per request/response frame pair.
type streamListener struct {
	net.Listener
	t     *tracer
	layer string
	c     *byteCounter
}

func (l streamListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &frameConn{
		Conn: conn, t: l.t, layer: l.layer, c: l.c,
		prefaceLeft: len(wireproto.Preface),
		pending:     make(map[uint64]pendingFrame),
	}, nil
}

type pendingFrame struct {
	op    string
	start time.Time
}

// frameConn is the accepted side of a stream connection: requests arrive on
// Read, responses leave on Write. Frames are split from the byte stream,
// decoded with wireproto.ReadFrame and paired by channel; a span runs from
// the read that completes a request frame to the write that completes its
// response.
type frameConn struct {
	net.Conn
	t     *tracer
	layer string
	c     *byteCounter

	rbuf, wbuf  []byte // partial frames; each side is used by one goroutine at a time
	prefaceLeft int

	mu      sync.Mutex
	pending map[uint64]pendingFrame
}

func (c *frameConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := time.Now()
		c.c.in.Add(int64(n))
		b := p[:n]
		if c.prefaceLeft > 0 {
			k := min(c.prefaceLeft, len(b))
			c.prefaceLeft -= k
			b = b[k:]
		}
		c.rbuf = splitFrames(append(c.rbuf, b...), func(m wireproto.Message) {
			op := frameOp(m)
			c.mu.Lock()
			c.pending[m.ChannelID()] = pendingFrame{op: op, start: now}
			c.mu.Unlock()
		})
	}
	return n, err
}

func (c *frameConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		now := time.Now()
		c.c.out.Add(int64(n))
		c.wbuf = splitFrames(append(c.wbuf, p[:n]...), func(m wireproto.Message) {
			c.mu.Lock()
			req, ok := c.pending[m.ChannelID()]
			delete(c.pending, m.ChannelID())
			c.mu.Unlock()
			if ok {
				c.t.record(c.layer, req.op, frameResource(m), req.start, now)
			}
		})
	}
	return n, err
}

// splitFrames decodes every complete frame at the head of buf and returns
// the unconsumed tail.
func splitFrames(buf []byte, each func(wireproto.Message)) []byte {
	head := buf
	for len(buf) >= 4 {
		size := 4 + int(binary.BigEndian.Uint32(buf))
		if len(buf) < size {
			break
		}
		if m, err := wireproto.ReadFrame(bytes.NewReader(buf[:size])); err == nil {
			each(m)
		}
		buf = buf[size:]
	}
	return head[:copy(head, buf)]
}

func frameOp(m wireproto.Message) string {
	switch m.(type) {
	case *wireproto.Create:
		return "create"
	case *wireproto.Answer, *wireproto.BatchAnswer:
		return "answer"
	case *wireproto.ResultRequest:
		return "result"
	}
	return "other"
}

func frameResource(m wireproto.Message) string {
	switch m := m.(type) {
	case *wireproto.Question:
		return m.ID
	case *wireproto.Result:
		return m.ID
	}
	return ""
}
