package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"setdiscovery/internal/server"
	"setdiscovery/internal/wireproto"
)

const (
	// workers is the number of closed-loop client workers. Each starts its
	// next session only after the previous one finished, as an interactive
	// user answers only after seeing the question.
	workers = 2
	// callTimeout bounds one exchange, so a stuck server fails the run
	// instead of hanging it.
	callTimeout = 10 * time.Second
	// maxRounds bounds the answer rounds of one session or batch.
	maxRounds = 200
	// runLimit bounds one call of run, a slice or a warm-up, so a server
	// that answers but crawls fails the run within the time a run is
	// allowed instead of holding it for hours. A slice takes about 2.5 s.
	runLimit = 40 * time.Second
)

// Operation kinds counted against attempts.
const (
	opCreate = iota
	opAnswer
	opResult
	opDelete
	numOps
)

var opNames = [numOps]string{"create", "answer", "result", "delete"}

// tally is the outcome of a stretch of load.
type tally struct {
	attempted, failed [numOps]int64
	wrong             int64 // finished discoveries that named the wrong target
	sessions          int64 // oracle-verified member sessions
	firstQ, rounds    []time.Duration
	qSum              int      // membership questions over the verified member sessions
	errs              []string // the first few failures, for the log
}

func (t *tally) merge(o *tally) {
	for i := range t.attempted {
		t.attempted[i] += o.attempted[i]
		t.failed[i] += o.failed[i]
	}
	t.wrong += o.wrong
	t.sessions += o.sessions
	t.firstQ = append(t.firstQ, o.firstQ...)
	t.rounds = append(t.rounds, o.rounds...)
	t.qSum += o.qSum
	for _, e := range o.errs {
		t.fail(e)
	}
}

func (t *tally) totals() (attempted, failed int64) {
	for i := range t.attempted {
		attempted += t.attempted[i]
		failed += t.failed[i]
	}
	return attempted, failed
}

func (t *tally) fail(msg string) {
	if len(t.errs) < 5 {
		t.errs = append(t.errs, msg)
	}
}

// exchange times one call and counts it. A failed call is counted and
// never retried; its unit is abandoned.
func (t *tally) exchange(tr *tracer, op int, res *string, samples *[]time.Duration, call func() error) bool {
	t0 := time.Now()
	err := call()
	t1 := time.Now()
	t.attempted[op]++
	if err != nil {
		t.failed[op]++
		t.fail(fmt.Sprintf("%s: %v", opNames[op], err))
		return false
	}
	if samples != nil {
		*samples = append(*samples, t1.Sub(t0))
	}
	if tr != nil {
		tr.record(layerClient, opNames[op], *res, t0, t1)
	}
	return true
}

// verified counts a finished unit whose every member found its target.
func (t *tally) verified(w workload, questions int) {
	t.sessions += int64(w.members())
	t.qSum += questions
}

// wrongAt counts a discovery gone wrong as a failure of the call that
// showed it: a result naming the wrong set, or a question frame reporting a
// member error or still asking after maxRounds.
func (t *tally) wrongAt(op int, msg string) {
	t.failed[op]++
	t.wrong++
	t.fail(msg)
}

// lastOp is the call that returned the question frame of round.
func lastOp(round int) int {
	if round == 0 {
		return opCreate
	}
	return opAnswer
}

// sessionClient drives units of work over one plane.
type sessionClient interface {
	unit(sp spec, t *tally)
	close()
}

// loadGen is the closed-loop load generator: one client per worker, and
// one collection per worker, on an engine of its own.
type loadGen struct {
	w       workload
	d       *data
	seed    uint64
	clients []sessionClient
}

func newLoadGen(w workload, d *data, seed uint64, f *fleet, names []string, tr *tracer) (*loadGen, error) {
	g := &loadGen{w: w, d: d, seed: seed}
	switch w.plane {
	case "stream":
		for i := range names {
			conn, err := net.DialTimeout("tcp", f.streamAddr, callTimeout)
			if err != nil {
				g.close()
				return nil, err
			}
			if tr != nil {
				conn = &countConn{Conn: conn, c: &tr.client}
			}
			c, err := wireproto.NewClient(conn)
			if err != nil {
				g.close()
				return nil, err
			}
			g.clients = append(g.clients, &streamClient{c: c, coll: names[i], w: w, d: d, tr: tr})
		}
	case "json":
		dialer := &net.Dialer{Timeout: callTimeout}
		transport := &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				conn, err := dialer.DialContext(ctx, network, addr)
				if err != nil || tr == nil {
					return conn, err
				}
				return &countConn{Conn: conn, c: &tr.client}, nil
			},
		}
		hc := &http.Client{Transport: transport, Timeout: callTimeout}
		for _, name := range names {
			g.clients = append(g.clients, &jsonClient{hc: hc, base: f.jsonURL, coll: name, w: w, d: d, tr: tr})
		}
	default:
		return nil, fmt.Errorf("unknown plane %q", w.plane)
	}
	return g, nil
}

func (g *loadGen) close() {
	for _, c := range g.clients {
		c.close()
	}
}

// warmup runs n units per worker from the warm-up index space; any failure
// fails the set-up.
func (g *loadGen) warmup(n int) error {
	t, err := g.run(warmupSalt, n)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if a, f := t.totals(); f > 0 {
		return fmt.Errorf("warm-up: %d of %d calls failed: %v", f, a, t.errs)
	}
	return nil
}

// run has each worker run its units 0, 1, …, n-1 of the index space salt.
// A worker's units and its collection's history are therefore the same on
// every run. A worker that passes runLimit starts no further unit, and run
// then fails.
func (g *loadGen) run(salt, n int) (*tally, error) {
	stop := time.Now().Add(runLimit)
	tallies := make([]tally, len(g.clients))
	started := make([]int, len(g.clients))
	var wg sync.WaitGroup
	for i, c := range g.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ; started[i] < n && time.Now().Before(stop); started[i]++ {
				c.unit(g.d.spec(g.w, g.seed, salt, i, started[i]), &tallies[i])
			}
		}()
	}
	wg.Wait()
	total := &tally{}
	for i := range tallies {
		total.merge(&tallies[i])
		if started[i] < n {
			return nil, fmt.Errorf("worker %d ran %d of %d units within %v", i, started[i], n, runLimit)
		}
	}
	return total, nil
}

// streamClient runs units on the binary stream plane over one connection.
type streamClient struct {
	c    *wireproto.Client
	coll string
	w    workload
	d    *data
	tr   *tracer
}

func (sc *streamClient) close() { sc.c.Close() }

func (sc *streamClient) unit(sp spec, t *tally) {
	s := sc.c.OpenStream()
	defer s.Close()
	create := &wireproto.Create{Collection: sc.coll, Batch: sc.w.batch > 0}
	if sp.initial != "" {
		for range sp.targets {
			create.Seeds = append(create.Seeds, []string{sp.initial})
		}
	}
	var q *wireproto.Question
	var res string
	if !t.exchange(sc.tr, opCreate, &res, &t.firstQ, func() (err error) {
		if q, err = s.Create(create, callTimeout); err == nil {
			res = q.ID
		}
		return err
	}) {
		return
	}
	for round := 0; !q.Done; round++ {
		if round == maxRounds {
			t.wrongAt(opAnswer, fmt.Sprintf("%s: no convergence after %d rounds", res, round))
			return
		}
		var call func() error
		if sc.w.batch > 0 {
			ba := &wireproto.BatchAnswer{}
			for _, mq := range q.Members {
				if mq.Error != "" {
					t.wrongAt(lastOp(round), fmt.Sprintf("%s member %d: %s", res, mq.Member, mq.Error))
					return
				}
				if !mq.Done {
					ba.Answers = append(ba.Answers, wireproto.MemberAnswer{
						Member: mq.Member, Entity: mq.Entity, Confirm: mq.Confirm,
						Answer: sc.d.answer(sp.targets[mq.Member], mq.Entity, mq.Confirm),
					})
				}
			}
			call = func() (err error) { q, err = s.AnswerBatch(ba, callTimeout); return err }
		} else {
			mq := q.Members[0]
			a := &wireproto.Answer{Entity: mq.Entity, Confirm: mq.Confirm,
				Answer: sc.d.answer(sp.targets[0], mq.Entity, mq.Confirm)}
			call = func() (err error) { q, err = s.Answer(a, callTimeout); return err }
		}
		if !t.exchange(sc.tr, opAnswer, &res, &t.rounds, call) {
			return
		}
	}
	var r *wireproto.Result
	if !t.exchange(sc.tr, opResult, &res, nil, func() (err error) {
		r, err = s.Result(callTimeout)
		return err
	}) {
		return
	}
	if len(r.Members) != len(sp.targets) {
		t.wrongAt(opResult, fmt.Sprintf("%s: %d member results, want %d", res, len(r.Members), len(sp.targets)))
		return
	}
	questions := 0
	for _, m := range r.Members {
		if want := sc.d.names[sp.targets[m.Member]]; !m.Done || m.Target != want {
			t.wrongAt(opResult, fmt.Sprintf("%s member %d discovered %q (%s), want %q", res, m.Member, m.Target, m.Error, want))
			return
		}
		questions += m.Questions
	}
	t.verified(sc.w, questions)
}

// jsonClient runs solo sessions on the /v1 JSON plane; the workers share
// one keep-alive pool of at most one connection per worker.
type jsonClient struct {
	hc   *http.Client
	base string
	coll string
	w    workload
	d    *data
	tr   *tracer
	buf  bytes.Buffer
}

func (jc *jsonClient) close() { jc.hc.CloseIdleConnections() }

// do sends one request and decodes the reply into out (if non-nil). The
// body is read to the end so the connection returns to the pool.
func (jc *jsonClient) do(method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	req, err := http.NewRequest(method, jc.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := jc.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	jc.buf.Reset()
	if _, err := jc.buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(jc.buf.Bytes()))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(jc.buf.Bytes(), out)
}

func (jc *jsonClient) unit(sp spec, t *tally) {
	target := sp.targets[0]
	create := server.CreateSessionRequest{}
	if sp.initial != "" {
		create.Initial = []string{sp.initial}
	}
	var q server.QuestionResponse
	var res string
	if !t.exchange(jc.tr, opCreate, &res, &t.firstQ, func() error {
		err := jc.do(http.MethodPost, "/v1/collections/"+jc.coll+"/sessions", create, &q)
		res = q.SessionID
		return err
	}) {
		return
	}
	for round := 0; !q.Done; round++ {
		if round == maxRounds {
			t.wrongAt(opAnswer, fmt.Sprintf("%s: no convergence after %d rounds", res, round))
			return
		}
		a := server.AnswerRequest{Entity: q.Entity, Confirm: q.Confirm, Answer: jc.d.answer(target, q.Entity, q.Confirm)}
		if !t.exchange(jc.tr, opAnswer, &res, &t.rounds, func() error {
			q = server.QuestionResponse{}
			return jc.do(http.MethodPost, "/v1/sessions/"+res+"/answer", a, &q)
		}) {
			return
		}
	}
	var r server.ResultResponse
	if !t.exchange(jc.tr, opResult, &res, nil, func() error {
		return jc.do(http.MethodGet, "/v1/sessions/"+res+"/result", nil, &r)
	}) {
		return
	}
	if want := jc.d.names[target]; !r.Done || r.Target != want {
		t.wrongAt(opResult, fmt.Sprintf("%s discovered %q (%s), want %q", res, r.Target, r.Error, want))
		return
	}
	if !t.exchange(jc.tr, opDelete, &res, nil, func() error {
		return jc.do(http.MethodDelete, "/v1/sessions/"+res, nil, nil)
	}) {
		return
	}
	t.verified(jc.w, r.Questions)
}
