package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"

	"setdiscovery"
	"setdiscovery/internal/wireproto"
)

// The binary stream plane. ServeStream speaks internal/wireproto over a
// net.Listener beside the /v1 HTTP handler: same store, same resource
// model, same error vocabulary (Error frames carry the HTTP status the
// JSON plane would answer), so a session is freely shared between planes —
// created over the stream, answered over HTTP, or vice versa. The handlers
// below reuse the exact HTTP-plane internals (newSessionFrom,
// applyMemberAnswer, resultBody, the snapshot renderers), which is what
// makes the two planes byte-identical by construction rather than by
// parallel maintenance.

// streamFrameWorkers bounds concurrently-processed frames per connection,
// so a hostile client pipelining thousands of frames cannot spawn
// unbounded goroutines. Well-behaved clients are synchronous per channel
// and never feel the bound.
const streamFrameWorkers = 256

// ServeStream accepts stream-plane connections on l until it is closed,
// then returns nil. Each connection may multiplex any number of concurrent
// sessions and batches.
func (s *Server) ServeStream(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.serveStreamConn(conn)
	}
}

// streamConn is one accepted stream-plane connection.
type streamConn struct {
	s    *Server
	conn net.Conn

	wmu sync.Mutex // serializes response frame writes

	mu    sync.Mutex
	bound map[uint64]string // channel → resource ID
}

func (s *Server) serveStreamConn(conn net.Conn) {
	defer conn.Close()
	if err := wireproto.ReadPreface(conn); err != nil {
		s.logf("server: stream preface from %s: %v", conn.RemoteAddr(), err)
		return
	}
	sc := &streamConn{s: s, conn: conn, bound: make(map[uint64]string)}
	br := bufio.NewReader(conn)
	sem := make(chan struct{}, streamFrameWorkers)
	var wg sync.WaitGroup
	for {
		m, err := wireproto.ReadRequestFrame(br)
		if err != nil {
			// A malformed frame poisons the stream (framing is lost);
			// transport errors and client hangups end it quietly.
			if errors.Is(err, wireproto.ErrBadFrame) {
				s.logf("server: stream from %s: %v", conn.RemoteAddr(), err)
			}
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			sc.handle(m)
		}()
	}
	wg.Wait()
}

// write encodes and sends one response frame; write errors just drop the
// response (the read loop will observe the dead connection).
func (sc *streamConn) write(m wireproto.Message) {
	buf, err := wireproto.AppendFrame(nil, m)
	if err != nil {
		sc.s.logf("server: stream response encode: %v", err)
		return
	}
	sc.wmu.Lock()
	_, err = sc.conn.Write(buf)
	sc.wmu.Unlock()
	if err != nil {
		sc.conn.Close()
	}
}

func (sc *streamConn) fail(ch uint64, status int, err error) {
	if status >= 500 {
		sc.s.logf("server: stream: %v", err)
	}
	sc.write(&wireproto.Error{Channel: ch, Status: status, Msg: err.Error()})
}

func (sc *streamConn) handle(m wireproto.Message) {
	switch req := m.(type) {
	case *wireproto.Create:
		sc.handleCreate(req)
	case *wireproto.Answer:
		sc.handleAnswer(req)
	case *wireproto.BatchAnswer:
		sc.handleBatchAnswer(req)
	case *wireproto.ResultRequest:
		sc.handleResult(req)
	default:
		sc.fail(m.ChannelID(), http.StatusBadRequest,
			fmt.Errorf("unexpected client frame type %d", m.Type()))
	}
}

// resource resolves the channel's bound resource, failing the frame with a
// 404 when the channel was never bound or the resource expired. Every call
// goes through the store so the TTL slides exactly as on the HTTP plane.
func (sc *streamConn) resource(ch uint64) (string, *Stored, bool) {
	sc.mu.Lock()
	id, ok := sc.bound[ch]
	sc.mu.Unlock()
	if !ok {
		sc.fail(ch, http.StatusNotFound, fmt.Errorf("channel %d is not bound to a resource", ch))
		return "", nil, false
	}
	st, ok := sc.s.store.Get(id)
	if !ok {
		sc.fail(ch, http.StatusNotFound, errors.New("unknown or expired resource"))
		return "", nil, false
	}
	return id, st, true
}

func (sc *streamConn) bind(ch uint64, id string) {
	sc.mu.Lock()
	sc.bound[ch] = id
	sc.mu.Unlock()
}

// wireConfig maps the frame-level engine configuration to the JSON plane's.
func wireConfig(cfg wireproto.SessionConfig) SessionConfig {
	return SessionConfig{
		Strategy:         cfg.Strategy,
		K:                cfg.K,
		Q:                cfg.Q,
		Metric:           cfg.Metric,
		MaxQuestions:     cfg.MaxQuestions,
		BatchSize:        cfg.BatchSize,
		Backtrack:        cfg.Backtrack,
		GroupStrategy:    cfg.GroupStrategy,
		GroupConstraints: cfg.GroupConstraints,
	}
}

func (sc *streamConn) handleCreate(req *wireproto.Create) {
	if req.AttachID != "" {
		st, ok := sc.s.store.Get(req.AttachID)
		if !ok {
			sc.fail(req.Channel, http.StatusNotFound, errors.New("unknown or expired resource"))
			return
		}
		sc.bind(req.Channel, req.AttachID)
		sc.respondQuestion(req.Channel, req.AttachID, st, nil, req.WantState)
		return
	}

	sc.s.mu.RLock()
	e, ok := sc.s.collections[req.Collection]
	sc.s.mu.RUnlock()
	if !ok {
		sc.fail(req.Channel, http.StatusNotFound, fmt.Errorf("no collection %q", req.Collection))
		return
	}

	var st *Stored
	if req.Batch {
		if len(req.Seeds) == 0 {
			sc.fail(req.Channel, http.StatusBadRequest, errors.New("a batch needs at least one seed"))
			return
		}
		if len(req.Seeds) > sc.s.maxBatchMembers {
			sc.fail(req.Channel, http.StatusBadRequest, fmt.Errorf(
				"batch of %d members exceeds the limit of %d", len(req.Seeds), sc.s.maxBatchMembers))
			return
		}
		opts, err := sessionOptions(wireConfig(req.Config), sc.s.sessionOpts)
		if err != nil {
			sc.fail(req.Channel, http.StatusBadRequest, err)
			return
		}
		seeds := make([]setdiscovery.Seed, len(req.Seeds))
		for i, seed := range req.Seeds {
			seeds[i] = setdiscovery.Seed{Initial: seed}
		}
		b, err := e.c.NewBatch(seeds, opts...)
		if err != nil {
			sc.fail(req.Channel, http.StatusBadRequest, err)
			return
		}
		st = &Stored{Batch: b, Collection: req.Collection}
	} else {
		var initial []string
		if len(req.Seeds) > 0 {
			initial = req.Seeds[0]
		}
		httpReq := &CreateSessionRequest{
			Initial:       initial,
			SessionConfig: wireConfig(req.Config),
			Tree:          req.Tree,
		}
		sess, err := newSessionFrom(e, httpReq, sc.s.sessionOpts)
		if err != nil {
			sc.fail(req.Channel, http.StatusBadRequest, err)
			return
		}
		st = &Stored{Session: sess, Collection: req.Collection}
	}

	id, err := sc.s.store.Put(st)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrStoreFull) {
			status = http.StatusServiceUnavailable
		}
		sc.fail(req.Channel, status, err)
		return
	}
	sc.bind(req.Channel, id)
	sc.respondQuestion(req.Channel, id, st, nil, req.WantState)
}

func (sc *streamConn) handleAnswer(req *wireproto.Answer) {
	id, st, ok := sc.resource(req.Channel)
	if !ok {
		return
	}
	if st.Kind() != KindSession {
		sc.fail(req.Channel, http.StatusNotFound, errors.New("unknown or expired session"))
		return
	}
	st.Mu.Lock()
	err := st.applyMemberAnswer(0, req.Answer, req.Entity, req.Confirm, req.Subset, req.Semantics)
	st.Mu.Unlock()
	if err != nil {
		status := http.StatusBadRequest
		var conflict *answerConflictError
		if errors.As(err, &conflict) {
			status = http.StatusConflict
		}
		sc.fail(req.Channel, status, err)
		return
	}
	sc.respondQuestion(req.Channel, id, st, nil, req.WantState)
}

func (sc *streamConn) handleBatchAnswer(req *wireproto.BatchAnswer) {
	id, st, ok := sc.resource(req.Channel)
	if !ok {
		return
	}
	if st.Kind() != KindBatch {
		sc.fail(req.Channel, http.StatusNotFound, errors.New("unknown or expired batch"))
		return
	}
	st.Mu.Lock()
	for _, ma := range req.Answers {
		if ma.Member < 0 || ma.Member >= st.Members() {
			st.Mu.Unlock()
			sc.fail(req.Channel, http.StatusBadRequest, fmt.Errorf("batch has no member %d", ma.Member))
			return
		}
	}
	memberErrs := make(map[int]string)
	for _, ma := range req.Answers {
		if err := st.applyMemberAnswer(ma.Member, ma.Answer, ma.Entity, ma.Confirm, ma.Subset, ma.Semantics); err != nil {
			memberErrs[ma.Member] = err.Error()
		}
	}
	st.EndRound()
	st.Mu.Unlock()
	sc.respondQuestion(req.Channel, id, st, memberErrs, req.WantState)
}

func (sc *streamConn) handleResult(req *wireproto.ResultRequest) {
	id, st, ok := sc.resource(req.Channel)
	if !ok {
		return
	}
	st.Mu.Lock()
	resp := &wireproto.Result{Channel: req.Channel, ID: id, Done: st.Done()}
	for i := 0; i < st.Members(); i++ {
		body := resultBody(st, i)
		resp.Members = append(resp.Members, wireproto.MemberResult{
			Member:          i,
			Done:            st.MemberDone(i),
			Target:          body.Target,
			Candidates:      body.Candidates,
			Questions:       body.Questions,
			Interactions:    body.Interactions,
			Backtracks:      body.Backtracks,
			SelectionTimeUS: body.SelectionTimeUS,
			Error:           body.Error,
		})
	}
	st.Mu.Unlock()
	sc.write(resp)
}

// respondQuestion renders the resource's pending interaction as a Question
// frame — the response to create, attach, answer and batch-answer frames.
// It reuses the HTTP plane's snapshot renderers so both planes see the same
// fields. Snapshot failures for wantState are logged and the field omitted,
// matching the ?include_state=1 piggyback's advisory semantics.
func (sc *streamConn) respondQuestion(ch uint64, id string, st *Stored, memberErrs map[int]string, wantState bool) {
	st.Mu.Lock()
	resp := &wireproto.Question{Channel: ch, ID: id, Done: st.Done()}
	for i := 0; i < st.Members(); i++ {
		q, done := st.Question(i)
		resp.Members = append(resp.Members, wireproto.MemberQuestion{
			Member:    i,
			Done:      done,
			Entity:    q.Entity,
			Confirm:   q.Confirm,
			Subset:    q.Subset,
			Semantics: q.Semantics,
			Questions: st.QuestionsAsked(i),
			Error:     memberErrs[i],
		})
	}
	if wantState {
		state, err := st.Snapshot()
		if err != nil {
			sc.s.logf("server: stream inline state for %s: %v", id, err)
		} else {
			resp.State = state
		}
	}
	st.Mu.Unlock()
	sc.write(resp)
}
