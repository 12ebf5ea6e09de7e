// Command perfbench is the repository's benchmark: it runs one named
// workload through an in-process fleet (two engines behind the dual-plane
// router), checks every discovery against a local oracle, and prints the
// workload's metrics, the last line of its output being one JSON object.
//
//	perfbench --workload json-small --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run. With
// --trace 1 it runs one slice untraced and the same slice
// traced, replays the slice's inputs through the setdiscovery facade, and
// reports per-layer metrics, the tracing overhead among them; the spans go
// to --spans. README.md beside this file describes the workloads, the
// metrics and the end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"setdiscovery"
	"setdiscovery/internal/server"
)

// minSlices is the fewest slices a run measures, each on a set-up of its
// own: setup_s is the median of at least this many set-ups, and
// questions_per_session covers exactly the first minSlices slices.
const minSlices = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: stream-small, json-small, stream-seeded or stream-batch")
		seed    = flag.Uint64("seed", 1, "workload seed: chooses every session's target and seed element")
		seconds = flag.Int("seconds", 15, "measured time: slices run until their summed time reaches it")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		spans   = flag.String("spans", "", "where --trace 1 writes its spans (default .bench_build/spans/<workload>-<seed>.tsv.gz)")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload stream-small|json-small|stream-seeded|stream-batch, --seconds ≥ 1 and --trace 0|1")
		os.Exit(2)
	}
	if *spans == "" {
		*spans = fmt.Sprintf(".bench_build/spans/%s-%d.tsv.gz", w.name, *seed)
	}
	b := &bench{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second}
	var out *output
	var err error
	if *trace == 1 {
		out, err = b.traced(*spans)
	} else {
		out, err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out.print()
	if !out.Correct {
		os.Exit(1)
	}
}

type bench struct {
	w      workload
	seed   uint64
	window time.Duration
}

// output is the result: the JSON line, and a table of every metric with
// its context printed before it.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	lines []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newOutput() *output {
	return &output{Correct: true, Metrics: make(map[string]metric)}
}

// set records a metric of the result line.
func (o *output) set(name string, v float64, unit, note string) {
	o.Metrics[name] = metric{Value: v, Unit: unit}
	o.info(name, v, unit, note)
}

// info adds a line to the table only.
func (o *output) info(name string, v float64, unit, note string) {
	o.lines = append(o.lines, fmt.Sprintf("%-40s %14.6g %-8s %s", name, v, unit, note))
}

func (o *output) count(t *tally) {
	a, f := t.totals()
	o.Attempted += a
	o.Failed += f
	if t.wrong > 0 {
		o.Correct = false
	}
}

// print writes the table, then the JSON result line.
func (o *output) print() {
	for _, l := range o.lines {
		fmt.Println(l)
	}
	line, err := json.Marshal(o)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(line))
}

// env is one set-up: the collection, the fleet and the connected load
// generator.
type env struct {
	d      *data
	f      *fleet
	g      *loadGen
	scrape *http.Client
}

func (e *env) close() {
	if e.g != nil {
		e.g.close()
	}
	if e.f != nil {
		e.f.close()
	}
	e.scrape.CloseIdleConnections()
}

// setUp generates the collection, builds one Collection per worker,
// starts the fleet with each worker's Collection on an engine of its own,
// connects the clients and runs the warm-up.
func (b *bench) setUp(tr *tracer) (*env, error) {
	e := &env{scrape: &http.Client{Transport: &http.Transport{}, Timeout: callTimeout}}
	d, err := generate(b.w)
	if err != nil {
		return nil, err
	}
	e.d = d
	names, err := collectionNames(workers)
	if err != nil {
		return nil, err
	}
	colls := make([]*setdiscovery.Collection, workers)
	for i := range colls {
		if colls[i], err = setdiscovery.NewCollection(d.sets); err != nil {
			return nil, err
		}
	}
	if e.f, err = startFleet(colls, names, tr); err != nil {
		return nil, err
	}
	if e.g, err = newLoadGen(b.w, d, b.seed, e.f, names, tr); err != nil {
		e.close()
		return nil, err
	}
	if err := e.g.warmup(b.w.warmup); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// sample is one timed slice with what was observed around it.
type sample struct {
	t              *tally
	elapsed        time.Duration
	before, after  fleetMetrics
	guard          error
	mallocs, numGC uint64
	gcCPU, allCPU  float64
	liveHeap       uint64
	bytes          map[string]int64 // tracer byte counters over the slice
}

// measure runs one slice, b.w.sliceUnits units per worker of the index
// space salt, on a set-up environment.
func (b *bench) measure(e *env, tr *tracer, salt int) (*sample, error) {
	s := &sample{}
	runtime.GC()
	var err error
	if s.before, err = e.f.scrape(e.scrape); err != nil {
		return nil, err
	}
	if tr != nil {
		tr.reset()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, all0 := cpuSeconds()

	t0 := time.Now()
	if s.t, err = e.g.run(salt, b.w.sliceUnits); err != nil {
		return nil, err
	}
	s.elapsed = time.Since(t0)

	gc1, all1 := cpuSeconds()
	runtime.ReadMemStats(&ms1)
	if tr != nil {
		s.bytes = tr.byteCounts()
	}
	s.mallocs, s.numGC = ms1.Mallocs-ms0.Mallocs, uint64(ms1.NumGC-ms0.NumGC)
	s.gcCPU, s.allCPU = gc1-gc0, all1-all0
	if s.after, err = e.f.scrape(e.scrape); err != nil {
		return nil, err
	}
	s.guard = healthGuard(s.before, s.after)
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	s.liveHeap = ms1.HeapAlloc
	for _, msg := range s.t.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", msg)
	}
	if s.guard != nil {
		fmt.Fprintln(os.Stderr, "perfbench: health guard:", s.guard)
	}
	return s, nil
}

// cpuSeconds reads the runtime's cumulative GC and total CPU estimates.
func cpuSeconds() (gc, total float64) {
	ss := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(ss)
	return ss[0].Value.Float64(), ss[1].Value.Float64()
}

// endToEnd measures slices, each on a set-up of its own, until their
// summed time reaches the window and at least minSlices ran, and reports the
// end-to-end metrics.
func (b *bench) endToEnd() (*output, error) {
	var setups []float64
	var samples []*sample
	var measured time.Duration
	for k := 0; k < minSlices || measured < b.window; k++ {
		t0 := time.Now()
		e, err := b.setUp(nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		s, err := b.measure(e, nil, sliceSalt(k))
		e.close()
		if err != nil {
			return nil, err
		}
		samples = append(samples, s)
		measured += s.elapsed
	}
	out := newOutput()
	b.report(out, samples)
	out.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups %.3f", len(setups), setups))
	return out, nil
}

// report adds the end-to-end metrics. Each is the median of its per-slice
// values, latency percentiles included: a burst of load from outside the
// benchmark that spans fewer than half the slices leaves the median alone,
// whereas it moves a figure pooled over the run.
func (b *bench) report(out *output, samples []*sample) {
	total, first := &tally{}, &tally{}
	var sps, heap, allocs, live, secs, fq50, fq99, rd50, rd99 []float64
	for k, s := range samples {
		t := s.t
		total.merge(t)
		if k < minSlices {
			first.merge(t)
		}
		if s.guard != nil {
			out.Correct = false
		}
		secs = append(secs, s.elapsed.Seconds())
		sps = append(sps, float64(t.sessions)/s.elapsed.Seconds())
		fq, rd := sorted(t.firstQ), sorted(t.rounds)
		fq50, fq99 = append(fq50, ms(pct(fq, 0.50))), append(fq99, ms(pct(fq, 0.99)))
		rd50, rd99 = append(rd50, ms(pct(rd, 0.50))), append(rd99, ms(pct(rd, 0.99)))
		heap = append(heap, float64(s.liveHeap)/(1<<20))
		allocs = append(allocs, ratio(float64(s.mallocs), float64(t.sessions)))
		live = append(live, s.after.engine("setdiscovery_live_discoveries"))
	}
	out.count(total)
	out.set("sessions_per_s", median(sps), "1/s", fmt.Sprintf("median of %d slices %.0f; n=%d verified member sessions in %.1f s %.2f",
		len(samples), sps, total.sessions, sum(secs), secs))
	perSlice := func(v []float64, n int, what string) string {
		return fmt.Sprintf("median over %d slices %.3f; n=%d %s, about %d a slice", len(v), v, n, what, n/len(v))
	}
	out.set("first_question_p50_ms", median(fq50), "ms", perSlice(fq50, len(total.firstQ), "creates"))
	out.set("first_question_p99_ms", median(fq99), "ms", perSlice(fq99, len(total.firstQ), "creates"))
	out.set("round_p50_ms", median(rd50), "ms", perSlice(rd50, len(total.rounds), "rounds"))
	out.set("round_p99_ms", median(rd99), "ms", perSlice(rd99, len(total.rounds), "rounds"))
	out.set("questions_per_session", ratio(float64(first.qSum), float64(first.sessions)), "questions",
		fmt.Sprintf("over the %d member sessions of the first %d slices", first.sessions, minSlices))
	a, f := total.totals()
	byOp := ""
	for i := range total.attempted {
		if total.attempted[i] > 0 {
			byOp += fmt.Sprintf(" %s %d/%d", opNames[i], total.failed[i], total.attempted[i])
		}
	}
	out.info("error_ratio", ratio(float64(f), float64(a)), "ratio", "failed/attempted:"+byOp)
	out.set("live_heap_mb", median(heap), "MB", "HeapAlloc after a forced GC at the end of a slice, fleet still up")
	out.set("allocs_per_session", median(allocs), "allocs", "runtime Mallocs over a slice per verified member session")
	out.info("live_discoveries_end", median(live), "count", fmt.Sprintf(
		"per slice, summed over the %d engines: %.0f; store budget %d per engine", workers, live, server.DefaultMaxSessions))
}

func sorted(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// pct is the nearest-rank percentile of sorted samples.
func pct(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(d)))) - 1
	return d[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(v []float64) (s float64) {
	for _, x := range v {
		s += x
	}
	return s
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// traced measures one slice untraced, then the same slice traced on a
// fresh set-up, then replays the untraced slice's units through the facade,
// and reports the per-layer metrics.
func (b *bench) traced(spansPath string) (*output, error) {
	g0 := runtime.NumGoroutine()
	e, err := b.setUp(nil)
	if err != nil {
		return nil, err
	}
	base, err := b.measure(e, nil, sliceSalt(0))
	e.close()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	if e, err = b.setUp(tr); err != nil {
		return nil, err
	}
	s, err := b.measure(e, tr, sliceSalt(0))
	e.close()
	if err != nil {
		return nil, err
	}
	goroutines := settle(g0, 2*time.Second, runtime.NumGoroutine) - g0
	spans := tr.link()

	units := int(base.t.sessions) / b.w.members()
	rp, err := replay(b.w, e.d, b.seed, sliceSalt(0), units, base.elapsed, tr)
	if err != nil {
		return nil, err
	}
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}

	out := newOutput()
	out.count(base.t)
	out.count(s.t)
	if base.guard != nil || s.guard != nil {
		out.Correct = false
	}
	rounds := float64(len(s.t.rounds))
	plane := b.w.plane
	out.set("client.bytes_per_round", (float64(s.bytes["client.in"])+float64(s.bytes["client.out"]))/rounds, "B",
		fmt.Sprintf("both directions, all calls, per answer round (n=%.0f)", rounds))
	self := sorted(selfTimes(spans, layerRouter, "answer"))
	out.set("router.self_p50_ms", ms(pct(self, 0.50)), "ms", fmt.Sprintf("n=%d rounds", len(self)))
	out.set("router.self_p99_ms", ms(pct(self, 0.99)), "ms", fmt.Sprintf("n=%d rounds", len(self)))
	out.set("router.state_bytes_per_round",
		float64(s.bytes["engine."+plane+".out"]-s.bytes["router."+plane+".out"])/rounds, "B",
		"engine→router minus router→client bytes")
	// delta is a counter's movement over both slices.
	delta := func(get func(fleetMetrics) float64) float64 {
		return get(base.after) - get(base.before) + get(s.after) - get(s.before)
	}
	routerM := func(name string) func(fleetMetrics) float64 {
		return func(m fleetMetrics) float64 { return m.router[name] }
	}
	engineM := func(name string) func(fleetMetrics) float64 {
		return func(m fleetMetrics) float64 { return m.engine(name) }
	}
	out.set("router.tracked_sessions_end", base.after.router["setdiscovery_router_tracked_sessions"], "count", "untraced slice")
	out.set("router.resurrections", delta(routerM("setdiscovery_router_resurrections_total")), "count", "both slices")
	out.set("router.migrations", delta(routerM("setdiscovery_router_migrations_total")), "count", "both slices")

	creates, answers := sorted(durations(spans, layerEngine, "create")), sorted(durations(spans, layerEngine, "answer"))
	out.set("server.create_p50_ms", ms(pct(creates, 0.50)), "ms", fmt.Sprintf("n=%d", len(creates)))
	out.set("server.round_p50_ms", ms(pct(answers, 0.50)), "ms", fmt.Sprintf("n=%d", len(answers)))
	out.set("server.round_p99_ms", ms(pct(answers, 0.99)), "ms", fmt.Sprintf("n=%d", len(answers)))
	out.set("server.live_discoveries_end", base.after.engine("setdiscovery_live_discoveries"), "count", "untraced slice")

	rc, ra := sorted(rp.create), sorted(rp.answer)
	replayNote := fmt.Sprintf("replay of %d member sessions", rp.members)
	out.set("session.create_p50_us", us(pct(rc, 0.50)), "us", fmt.Sprintf("n=%d, %s", len(rc), replayNote))
	out.set("session.answer_p50_us", us(pct(ra, 0.50)), "us", fmt.Sprintf("n=%d", len(ra)))
	out.set("session.answer_p99_us", us(pct(ra, 0.99)), "us", fmt.Sprintf("n=%d", len(ra)))
	out.set("selection.time_share", ratio(float64(rp.selection), float64(rp.total)), "ratio", replayNote)

	sessions := float64(base.t.sessions)
	hits := delta(engineM("setdiscovery_selection_cache_hits_total"))
	misses := delta(engineM("setdiscovery_selection_cache_misses_total"))
	coalesced := delta(engineM("setdiscovery_selection_cache_coalesced_total"))
	sessions += float64(s.t.sessions)
	out.set("selection.memo_hit_ratio", ratio(hits, hits+misses), "ratio", fmt.Sprintf("%.0f lookups, both slices", hits+misses))
	out.set("selection.computed_per_session", ratio(misses-coalesced, sessions), "count", "both slices")
	out.set("selection.coalesced_per_session", ratio(coalesced, sessions), "count", "both slices")
	out.set("selection.evictions", delta(engineM("setdiscovery_selection_cache_evictions_total")), "count", "both slices")

	amort, note := 1.0, "solo sessions: one selection per member round"
	if b.w.batch > 0 {
		amort = ratio(float64(rp.computed+rp.shared), float64(rp.computed))
		note = fmt.Sprintf("selections computed %d, shared %d", rp.computed, rp.shared)
	}
	out.set("batch.amortisation", amort, "ratio", note)
	out.set("batch.selections_per_member_round", ratio(float64(rp.computed), float64(rp.questions)), "ratio", replayNote)

	out.set("runtime.gc_cpu_fraction", ratio(base.gcCPU, base.allCPU), "ratio", "untraced slice")
	out.set("runtime.gc_cycles_per_session", ratio(float64(base.numGC), float64(base.t.sessions)), "count", "untraced slice")
	out.set("runtime.goroutines_delta", float64(goroutines), "count", "after both fleets shut down")

	bp, tp := pct(sorted(base.t.rounds), 0.5), pct(sorted(s.t.rounds), 0.5)
	out.set("trace.round_p50_overhead", ratio(float64(tp-bp), float64(bp)), "ratio",
		fmt.Sprintf("round p50 traced %.4f ms vs untraced %.4f ms", ms(tp), ms(bp)))
	out.set("trace.sessions_per_s_overhead", ratio(s.elapsed.Seconds()-base.elapsed.Seconds(), s.elapsed.Seconds()), "ratio",
		fmt.Sprintf("the same %d sessions took %.3f s traced vs %.3f s untraced", base.t.sessions, s.elapsed.Seconds(), base.elapsed.Seconds()))
	return out, nil
}
