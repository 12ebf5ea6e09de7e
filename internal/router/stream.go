package router

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"setdiscovery/internal/wireproto"
)

// The router's stream-plane front (internal/wireproto). Clients speak the
// same frame protocol to the router as to an engine; the router terminates
// every client frame, re-resolves the resource's owner, and forwards over a
// bounded per-backend connection pool — persistent, multiplexed TCP links
// replacing the JSON plane's per-request proxy transactions. Because each
// hop is terminated (not spliced), the router keeps its full affinity,
// snapshot-capture and resurrection machinery in the path: every forwarded
// create and answer asks the engine for an inline snapshot on the router's
// cadence, and when an owner dies and its sessions are resurrected
// elsewhere, the next frame transparently re-attaches to the new owner.

// DefaultStreamPoolSize is the per-backend stream-connection bound. Each
// connection multiplexes arbitrarily many channels, so a handful is enough
// to spread load across engine accept loops; the bound keeps file
// descriptors predictable at any fleet size.
const DefaultStreamPoolSize = 4

// streamDialTimeout bounds one pool dial; stream backends are LAN peers.
const streamDialTimeout = 5 * time.Second

// WithStreamPoolSize bounds the number of pooled stream connections per
// backend.
func WithStreamPoolSize(n int) Option {
	return func(rt *Router) {
		if n > 0 {
			rt.streamPoolSize = n
		}
	}
}

// SetBackendStream records a backend's stream-plane listen address
// (host:port). Stream addresses are not persisted in the router log — the
// daemon replays its -stream-route flags at startup, exactly like -route.
func (rt *Router) SetBackendStream(name, addr string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	b, ok := rt.backends[name]
	if !ok {
		return fmt.Errorf("%w %q", ErrNoBackend, name)
	}
	b.streamAddr = addr
	return nil
}

// streamPool is a bounded set of multiplexed stream connections to one
// backend. get lazily dials up to max connections, round-robins across
// them, and prunes any whose transport has failed — so after a backend
// death the pool drains, and the first frame following its resurrection or
// recovery re-dials fresh (failover re-dial).
type streamPool struct {
	mu    sync.Mutex
	addr  string
	conns []*wireproto.Client
	next  int
	max   int
}

func (p *streamPool) get() (*wireproto.Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	live := p.conns[:0]
	for _, c := range p.conns {
		if c.Err() != nil {
			c.Close()
			continue
		}
		live = append(live, c)
	}
	p.conns = live
	if len(p.conns) < p.max {
		c, err := wireproto.Dial(p.addr, streamDialTimeout)
		if err != nil {
			if len(p.conns) > 0 {
				// A failed grow-dial with healthy connections left is a
				// capacity hiccup, not an outage: serve from what we have.
				return p.pick(), nil
			}
			return nil, err
		}
		p.conns = append(p.conns, c)
		return c, nil
	}
	return p.pick(), nil
}

func (p *streamPool) pick() *wireproto.Client {
	c := p.conns[p.next%len(p.conns)]
	p.next++
	return c
}

func (p *streamPool) closeAll() {
	p.mu.Lock()
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// streamConn returns a pooled connection to b's stream address, creating
// the pool on first use.
func (rt *Router) streamConn(b *backend) (*wireproto.Client, error) {
	rt.mu.RLock()
	addr := b.streamAddr
	rt.mu.RUnlock()
	if addr == "" {
		return nil, fmt.Errorf("backend %s has no stream address", b.name)
	}
	rt.spMu.Lock()
	p, ok := rt.streamPools[b.name]
	if !ok || p.addr != addr {
		p = &streamPool{addr: addr, max: rt.streamPoolSize}
		rt.streamPools[b.name] = p
	}
	rt.spMu.Unlock()
	return p.get()
}

// closeStreamPool drops every pooled connection to the named backend —
// called when the health loop declares it dead and when it is removed, so
// no frame is ever forwarded down a link the prober already condemned.
func (rt *Router) closeStreamPool(name string) {
	rt.spMu.Lock()
	p := rt.streamPools[name]
	delete(rt.streamPools, name)
	rt.spMu.Unlock()
	if p != nil {
		p.closeAll()
	}
}

// ServeStream accepts stream-plane client connections on l until it is
// closed, then returns nil.
func (rt *Router) ServeStream(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go rt.serveStreamConn(conn)
	}
}

// proxyChan is one client channel's routing state: the bound resource and
// the backend-side stream currently carrying it. The backend stream is
// remade whenever the owner moves or its connection dies.
type proxyChan struct {
	mu         sync.Mutex
	id         string
	kindPath   string
	collection string

	backendName string
	bc          *wireproto.Client
	bs          *wireproto.Stream
}

// routerStreamConn is one accepted client connection on the router's
// stream plane.
type routerStreamConn struct {
	rt   *Router
	conn net.Conn

	wmu sync.Mutex

	mu    sync.Mutex
	chans map[uint64]*proxyChan
}

// streamProxyWorkers bounds concurrently-processed frames per client
// connection (same rationale as the engine's bound).
const streamProxyWorkers = 256

func (rt *Router) serveStreamConn(conn net.Conn) {
	defer conn.Close()
	if err := wireproto.ReadPreface(conn); err != nil {
		rt.logf("router: stream preface from %s: %v", conn.RemoteAddr(), err)
		return
	}
	sc := &routerStreamConn{rt: rt, conn: conn, chans: make(map[uint64]*proxyChan)}
	defer sc.closeChans()
	br := bufio.NewReader(conn)
	sem := make(chan struct{}, streamProxyWorkers)
	var wg sync.WaitGroup
	for {
		m, err := wireproto.ReadRequestFrame(br)
		if err != nil {
			if errors.Is(err, wireproto.ErrBadFrame) {
				rt.logf("router: stream from %s: %v", conn.RemoteAddr(), err)
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

// closeChans releases every backend-side stream when the client hangs up;
// the pooled connections themselves stay for other clients.
func (sc *routerStreamConn) closeChans() {
	sc.mu.Lock()
	chans := sc.chans
	sc.chans = nil
	sc.mu.Unlock()
	for _, pc := range chans {
		pc.mu.Lock()
		if pc.bs != nil {
			pc.bs.Close()
		}
		pc.mu.Unlock()
	}
}

func (sc *routerStreamConn) write(m wireproto.Message) {
	buf, err := wireproto.AppendFrame(nil, m)
	if err != nil {
		sc.rt.logf("router: stream response encode: %v", err)
		return
	}
	sc.wmu.Lock()
	_, err = sc.conn.Write(buf)
	sc.wmu.Unlock()
	if err != nil {
		sc.conn.Close()
	}
}

func (sc *routerStreamConn) fail(ch uint64, status int, err error) {
	if status >= 500 {
		sc.rt.logf("router: stream: %v", err)
	}
	sc.write(&wireproto.Error{Channel: ch, Status: status, Msg: err.Error()})
}

func (sc *routerStreamConn) handle(m wireproto.Message) {
	switch req := m.(type) {
	case *wireproto.Create:
		sc.handleCreate(req)
	case *wireproto.Answer:
		sc.handleRound(req.Channel, req, req.WantState)
	case *wireproto.BatchAnswer:
		sc.handleRound(req.Channel, req, req.WantState)
	case *wireproto.ResultRequest:
		sc.handleResultReq(req)
	default:
		sc.fail(m.ChannelID(), http.StatusBadRequest,
			fmt.Errorf("unexpected client frame type %d", m.Type()))
	}
}

func (sc *routerStreamConn) channel(ch uint64) (*proxyChan, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	pc, ok := sc.chans[ch]
	return pc, ok
}

// handleCreate binds a client channel: placement by collection ring owner
// for fresh resources, owner lookup for AttachID re-binds. The forwarded
// create always demands an inline snapshot, so stream-created resources
// are resurrectable from the moment they exist, exactly like the JSON
// plane's create path.
func (sc *routerStreamConn) handleCreate(req *wireproto.Create) {
	rt := sc.rt
	var b *backend
	kindPath := "sessions"
	collection := req.Collection
	if req.Batch {
		kindPath = "batches"
	}

	if req.AttachID != "" {
		rt.mu.Lock()
		own, ok := rt.owners[req.AttachID]
		dead := false
		if ok {
			own.lastSeen = rt.now()
			b = own.b
			kindPath = own.kindPath
			collection = own.collection
			dead = b.state == stateDead
		}
		rt.mu.Unlock()
		if !ok {
			sc.fail(req.Channel, http.StatusNotFound, errors.New("unknown or expired resource"))
			return
		}
		if dead {
			sc.fail(req.Channel, http.StatusServiceUnavailable,
				fmt.Errorf("backend %s holding %s is down", b.name, req.AttachID))
			return
		}
	} else {
		rt.mu.RLock()
		b = rt.ringOwnerLocked(collection)
		rt.mu.RUnlock()
		if b == nil {
			sc.fail(req.Channel, http.StatusServiceUnavailable, errNoLiveBackend)
			return
		}
	}

	bc, err := rt.streamConn(b)
	if err != nil {
		sc.fail(req.Channel, http.StatusBadGateway, err)
		return
	}
	bs := bc.OpenStream()
	fwd := *req
	clientWantState := req.WantState
	fwd.WantState = true // snapshot capture piggyback, stripped below
	q, err := bs.Create(&fwd, rt.proxyTimeout)
	if err != nil {
		bs.Close()
		sc.forwardError(req.Channel, "", err)
		return
	}

	id := q.ID
	if req.AttachID == "" && id != "" {
		rt.mu.Lock()
		now := rt.now()
		own := &owner{b: b, kindPath: kindPath, collection: collection, lastSeen: now}
		rt.owners[id] = own
		rt.persistOwnerLocked(id, own)
		rt.sweepOwnersLocked(now)
		rt.mu.Unlock()
	}
	sc.captureState(id, collection, kindPath, q)

	pc := &proxyChan{id: id, kindPath: kindPath, collection: collection, backendName: b.name, bc: bc, bs: bs}
	sc.mu.Lock()
	if sc.chans == nil { // client already hung up
		sc.mu.Unlock()
		bs.Close()
		return
	}
	if old := sc.chans[req.Channel]; old != nil && old.bs != nil {
		old.bs.Close()
	}
	sc.chans[req.Channel] = pc
	sc.mu.Unlock()

	if !clientWantState {
		q.State = nil
	}
	q.Channel = req.Channel
	sc.write(q)
}

// resolveOwner re-resolves the channel's resource owner before a forward,
// remaking the backend-side stream when the owner moved (resurrection,
// migration, recovery) or its pooled connection died — the stream plane's
// failover re-dial. Callers hold pc.mu.
func (sc *routerStreamConn) resolveOwner(pc *proxyChan) (*backend, error) {
	rt := sc.rt
	rt.mu.Lock()
	own, ok := rt.owners[pc.id]
	var b *backend
	if ok && own.kindPath == pc.kindPath {
		own.lastSeen = rt.now()
		b = own.b
	}
	dead := b != nil && b.state == stateDead
	rt.mu.Unlock()
	if b == nil {
		return nil, &wireproto.RemoteError{Status: http.StatusNotFound,
			Msg: fmt.Sprintf("unknown or expired %s", kindNoun(pc.kindPath))}
	}
	if dead {
		return nil, &wireproto.RemoteError{Status: http.StatusServiceUnavailable,
			Msg: fmt.Sprintf("backend %s holding %s %s is down", b.name, kindNoun(pc.kindPath), pc.id)}
	}

	if pc.bs == nil || pc.backendName != b.name || pc.bc.Err() != nil {
		if pc.bs != nil {
			pc.bs.Close()
			pc.bs = nil
		}
		bc, err := rt.streamConn(b)
		if err != nil {
			return nil, fmt.Errorf("backend %s unreachable: %w", b.name, err)
		}
		bs := bc.OpenStream()
		if _, err := bs.Attach(pc.id, false, rt.proxyTimeout); err != nil {
			bs.Close()
			return nil, err
		}
		pc.bc, pc.bs, pc.backendName = bc, bs, b.name
	}
	return b, nil
}

// handleRound forwards one answer or batch-answer exchange. Like the JSON
// plane's POST path it is single-shot: a transport failure mid-exchange
// leaves the answer's fate unknown, so the client disambiguates by
// re-attaching (which re-fetches the question) rather than the router
// re-sending blind. Snapshot capture rides the forward on the router's
// cadence.
func (sc *routerStreamConn) handleRound(ch uint64, req wireproto.Message, clientWantState bool) {
	rt := sc.rt
	pc, ok := sc.channel(ch)
	if !ok {
		sc.fail(ch, http.StatusNotFound, fmt.Errorf("channel %d is not bound to a resource", ch))
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()

	if _, err := sc.resolveOwner(pc); err != nil {
		sc.forwardError(ch, pc.id, err)
		return
	}

	rt.mu.Lock()
	wantSnap := false
	if own, ok := rt.owners[pc.id]; ok {
		wantSnap = rt.wantSnapshotLocked(own, pc.id)
	}
	rt.mu.Unlock()

	var q *wireproto.Question
	var err error
	switch r := req.(type) {
	case *wireproto.Answer:
		fwd := *r
		fwd.WantState = clientWantState || wantSnap
		q, err = pc.bs.Answer(&fwd, rt.proxyTimeout)
	case *wireproto.BatchAnswer:
		fwd := *r
		fwd.WantState = clientWantState || wantSnap
		q, err = pc.bs.AnswerBatch(&fwd, rt.proxyTimeout)
	}
	if err != nil {
		// The backend stream is only trustworthy after a clean exchange;
		// drop it so the next frame re-attaches.
		if !isRemote(err) {
			pc.bs.Close()
			pc.bs = nil
		}
		sc.forwardError(ch, pc.id, err)
		return
	}
	sc.captureState(pc.id, pc.collection, pc.kindPath, q)
	if !clientWantState {
		q.State = nil
	}
	q.Channel = ch
	sc.write(q)
}

// handleResultReq forwards a result fetch — idempotent, so a transport
// failure is retried once after re-resolving the owner.
func (sc *routerStreamConn) handleResultReq(req *wireproto.ResultRequest) {
	rt := sc.rt
	pc, ok := sc.channel(req.Channel)
	if !ok {
		sc.fail(req.Channel, http.StatusNotFound, fmt.Errorf("channel %d is not bound to a resource", req.Channel))
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()

	var res *wireproto.Result
	var err error
	for attempt := 0; attempt < 2; attempt++ {
		if _, err = sc.resolveOwner(pc); err != nil {
			break
		}
		res, err = pc.bs.Result(rt.proxyTimeout)
		if err == nil || isRemote(err) {
			break
		}
		pc.bs.Close()
		pc.bs = nil
	}
	if err != nil {
		sc.forwardError(req.Channel, pc.id, err)
		return
	}
	res.Channel = req.Channel
	sc.write(res)
}

// captureState stores a forwarded response's inline snapshot in the
// resurrection cache — the stream plane's equivalent of captureInline.
func (sc *routerStreamConn) captureState(id, collection, kindPath string, q *wireproto.Question) {
	if id == "" || len(q.State) == 0 {
		return
	}
	rt := sc.rt
	questions := -1
	if kindPath == "sessions" && len(q.Members) == 1 {
		questions = q.Members[0].Questions
	}
	rt.snaps.put(snapEntry{
		id: id, collection: collection, kindPath: kindPath,
		state: q.State, questions: questions, captured: rt.now(),
	})
	rt.mu.Lock()
	if own, ok := rt.owners[id]; ok {
		own.sinceSnap = 0
	}
	rt.mu.Unlock()
}

// forwardError relays a backend failure to the client: RemoteErrors pass
// through with their status (a backend 404 also drops the affinity entry,
// mirroring the JSON plane), anything else becomes a 502.
func (sc *routerStreamConn) forwardError(ch uint64, id string, err error) {
	var re *wireproto.RemoteError
	if errors.As(err, &re) {
		if re.Status == http.StatusNotFound && id != "" {
			sc.rt.dropOwner(id)
		}
		sc.write(&wireproto.Error{Channel: ch, Status: re.Status, Msg: re.Msg})
		return
	}
	sc.fail(ch, http.StatusBadGateway, err)
}

func isRemote(err error) bool {
	var re *wireproto.RemoteError
	return errors.As(err, &re)
}
