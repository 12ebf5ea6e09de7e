package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"setdiscovery"
	"setdiscovery/internal/router"
	"setdiscovery/internal/server"
)

// fleet is the in-process deployment: engines, each serving both planes,
// behind one dual-plane router running its health loop.
type fleet struct {
	rt         *router.Router
	jsonURL    string   // router /v1 front
	streamAddr string   // router stream front
	engineURLs []string // engines' /v1 listeners, scraped for /v1/metrics
	engines    []string // backend names

	stopHealth context.CancelFunc
	https      []*http.Server
	streamLns  []net.Listener
	serving    sync.WaitGroup
}

// startFleet starts one engine per collection, engine i serving colls[i]
// under names[i], and the router in front of them. With a tracer, the
// router's and engines' handlers and stream listeners are wrapped to record
// spans and count bytes.
func startFleet(colls []*setdiscovery.Collection, names []string, tr *tracer) (*fleet, error) {
	f := &fleet{rt: router.New()}
	started := false
	defer func() {
		if !started {
			f.close()
		}
	}()
	for i, c := range colls {
		srv := server.New()
		if err := srv.Register(names[i], c); err != nil {
			return nil, err
		}
		var h http.Handler = srv.Handler()
		var wrapHTTP, wrapStream func(net.Listener) net.Listener
		if tr != nil {
			h = tr.httpLayer(layerEngine, h)
			wrapHTTP = tr.counted(&tr.engineJSON)
			wrapStream = tr.framed(layerEngine, &tr.engineStream)
		}
		httpAddr, err := f.serveHTTP(h, wrapHTTP)
		if err != nil {
			return nil, err
		}
		streamAddr, err := f.serveStream(srv.ServeStream, wrapStream)
		if err != nil {
			return nil, err
		}
		name := engineName(i)
		if err := f.rt.AddBackend(name, "http://"+httpAddr); err != nil {
			return nil, err
		}
		f.engines = append(f.engines, name)
		if err := f.rt.SetBackendStream(name, streamAddr); err != nil {
			return nil, err
		}
		f.engineURLs = append(f.engineURLs, "http://"+httpAddr)
	}
	var h http.Handler = f.rt.Handler()
	var wrapHTTP, wrapStream func(net.Listener) net.Listener
	if tr != nil {
		h = tr.httpLayer(layerRouter, h)
		wrapHTTP = tr.counted(&tr.routerJSON)
		wrapStream = tr.framed(layerRouter, &tr.routerStream)
	}
	addr, err := f.serveHTTP(h, wrapHTTP)
	if err != nil {
		return nil, err
	}
	f.jsonURL = "http://" + addr
	if f.streamAddr, err = f.serveStream(f.rt.ServeStream, wrapStream); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.stopHealth = cancel
	f.rt.StartHealth(ctx)
	started = true
	return f, nil
}

// serveHTTP serves h on a fresh loopback listener, passed through wrap
// when it is set, and returns the listener's address.
func (f *fleet) serveHTTP(h http.Handler, wrap func(net.Listener) net.Listener) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	f.https = append(f.https, hs)
	var l net.Listener = ln
	if wrap != nil {
		l = wrap(ln)
	}
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = hs.Serve(l) // returns http.ErrServerClosed on close
	}()
	return ln.Addr().String(), nil
}

// serveStream runs a stream-plane accept loop on a fresh loopback
// listener, passed through wrap when it is set.
func (f *fleet) serveStream(serve func(net.Listener) error, wrap func(net.Listener) net.Listener) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	f.streamLns = append(f.streamLns, ln)
	var l net.Listener = ln
	if wrap != nil {
		l = wrap(ln)
	}
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = serve(l) // returns nil once the listener is closed
	}()
	return ln.Addr().String(), nil
}

// close stops the health loop, drops the router's pooled engine
// connections, closes every listener and connection, and waits for the
// accept loops to return.
func (f *fleet) close() {
	if f.stopHealth != nil {
		f.stopHealth()
	}
	for _, name := range f.engines {
		_ = f.rt.RemoveBackend(name) // closes the router's stream pool to it
	}
	for _, ln := range f.streamLns {
		ln.Close()
	}
	for _, hs := range f.https {
		hs.Close()
	}
	f.serving.Wait()
}

// scrape fetches a /v1/metrics page and sums each metric over its label
// sets.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("%s/v1/metrics: status %d", base, resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("%s/v1/metrics: %q: %w", base, line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// fleetMetrics is one scrape of the router and of every engine.
type fleetMetrics struct {
	router  map[string]float64
	engines []map[string]float64
}

func (f *fleet) scrape(client *http.Client) (fleetMetrics, error) {
	var m fleetMetrics
	var err error
	if m.router, err = scrape(client, f.jsonURL); err != nil {
		return m, err
	}
	for _, u := range f.engineURLs {
		em, err := scrape(client, u)
		if err != nil {
			return m, err
		}
		m.engines = append(m.engines, em)
	}
	return m, nil
}

// engine sums a metric over the engines.
func (m fleetMetrics) engine(name string) float64 {
	var v float64
	for _, em := range m.engines {
		v += em[name]
	}
	return v
}

// healthGuard reports an error when the router resurrected or migrated
// anything between two scrapes: a health flap under load silently changes
// the workload.
func healthGuard(before, after fleetMetrics) error {
	var errs []error
	for _, name := range []string{"setdiscovery_router_resurrections_total", "setdiscovery_router_migrations_total"} {
		if d := after.router[name] - before.router[name]; d != 0 {
			errs = append(errs, fmt.Errorf("%s moved by %g during the run", name, d))
		}
	}
	return errors.Join(errs...)
}

func engineName(i int) string { return fmt.Sprintf("engine%d", i) }

// collectionNames returns one collection name per engine such that the
// router's consistent-hash ring places name i on engine i, so each worker's
// sessions have an engine of their own. It mirrors the ring of
// internal/router: 64 virtual nodes per backend name, hashed with FNV-1a and
// a splitmix64 finaliser. Should that ring change, a create lands on an
// engine without the collection and set-up fails with a 404, rather than
// silently measuring another placement.
func collectionNames(engines int) ([]string, error) {
	type point struct {
		h      uint64
		engine int
	}
	var ring []point
	for e := 0; e < engines; e++ {
		for v := 0; v < 64; v++ {
			ring = append(ring, point{ringHash(fmt.Sprintf("%s#%d", engineName(e), v)), e})
		}
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].h < ring[j].h })
	names := make([]string, engines)
	for k, found := 0, 0; found < engines; k++ {
		if k == 1000 {
			return nil, fmt.Errorf("no collection name places on every one of %d engines", engines)
		}
		name := fmt.Sprintf("load-%d", k)
		h := ringHash(name)
		i := sort.Search(len(ring), func(i int) bool { return ring[i].h >= h })
		if e := ring[i%len(ring)].engine; names[e] == "" {
			names[e] = name
			found++
		}
	}
	return names, nil
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, s)
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// settle waits up to d for the goroutine count to fall to want, returning
// the last count seen.
func settle(want int, d time.Duration, count func() int) int {
	deadline := time.Now().Add(d)
	n := count()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = count()
	}
	return n
}
