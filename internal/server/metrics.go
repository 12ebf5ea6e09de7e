package server

// Prometheus text-format exposition (GET /v1/metrics): the same counters
// /v1/stats reports as JSON, rendered for scrapers. The format is the
// subset of text/plain; version=0.0.4 every Prometheus-compatible scraper
// accepts — # HELP, # TYPE, and one sample per line — written by hand so
// the server stays dependency-free.

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"
)

// metricsWriter accumulates one exposition body. Families must be emitted
// contiguously (HELP/TYPE once, then every sample), which the handlers do
// by construction.
type metricsWriter struct {
	b strings.Builder
}

func (m *metricsWriter) family(name, help, typ string) {
	fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

func (m *metricsWriter) sample(name, labels string, v float64) {
	if labels != "" {
		fmt.Fprintf(&m.b, "%s{%s} %g\n", name, labels, v)
	} else {
		fmt.Fprintf(&m.b, "%s %g\n", name, v)
	}
}

func (m *metricsWriter) serve(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(m.b.String()))
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// handleMetrics serves GET /v1/metrics on an engine: store occupancy by
// resource kind, capacity and TTL configuration, and each collection's
// selection-cache fabric counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var m metricsWriter
	sessions, batches := s.store.Counts()

	m.family("setdiscovery_uptime_seconds", "Seconds since the server started.", "gauge")
	m.sample("setdiscovery_uptime_seconds", "", float64(int64(time.Since(s.started)/time.Second)))

	m.family("setdiscovery_resources", "Live store entries by resource kind.", "gauge")
	m.sample("setdiscovery_resources", `kind="session"`, float64(sessions))
	m.sample("setdiscovery_resources", `kind="batch"`, float64(batches))

	m.family("setdiscovery_live_discoveries", "Capacity weight of live resources (a batch counts every member).", "gauge")
	m.sample("setdiscovery_live_discoveries", "", float64(s.store.Used()))

	m.family("setdiscovery_max_sessions", "Configured live-discovery capacity.", "gauge")
	m.sample("setdiscovery_max_sessions", "", float64(s.store.max))

	m.family("setdiscovery_session_ttl_seconds", "Configured resource TTL.", "gauge")
	m.sample("setdiscovery_session_ttl_seconds", "", float64(int64(s.store.ttl/time.Second)))

	m.family("setdiscovery_sliding_ttl", "Whether the TTL slides on access (1) or is fixed from creation (0).", "gauge")
	m.sample("setdiscovery_sliding_ttl", "", boolGauge(s.sliding))

	type collRow struct {
		name           string
		sets, entities int
		tree           bool
		cache          CacheStats
	}
	var rows []collRow
	s.mu.RLock()
	for name, e := range s.collections {
		cs := e.c.SelectionCacheStats()
		rows = append(rows, collRow{
			name:     name,
			sets:     e.c.Len(),
			entities: e.c.Internal().DistinctEntities(),
			tree:     e.tree != nil,
			cache: CacheStats{
				Hits:      cs.Hits,
				Misses:    cs.Misses,
				Evictions: cs.Evictions,
				Coalesced: cs.Coalesced,
				Entries:   cs.Entries,
			},
		})
	}
	s.mu.RUnlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })

	m.family("setdiscovery_collection_sets", "Registered sets per collection.", "gauge")
	for _, c := range rows {
		m.sample("setdiscovery_collection_sets", fmt.Sprintf(`collection=%q`, escapeLabel(c.name)), float64(c.sets))
	}
	m.family("setdiscovery_collection_entities", "Distinct entities per collection.", "gauge")
	for _, c := range rows {
		m.sample("setdiscovery_collection_entities", fmt.Sprintf(`collection=%q`, escapeLabel(c.name)), float64(c.entities))
	}
	m.family("setdiscovery_collection_tree", "Whether a prebuilt decision tree is registered (1) for the collection.", "gauge")
	for _, c := range rows {
		m.sample("setdiscovery_collection_tree", fmt.Sprintf(`collection=%q`, escapeLabel(c.name)), boolGauge(c.tree))
	}

	counter := func(name, help string, get func(CacheStats) float64) {
		m.family(name, help, "counter")
		for _, c := range rows {
			m.sample(name, fmt.Sprintf(`collection=%q`, escapeLabel(c.name)), get(c.cache))
		}
	}
	counter("setdiscovery_selection_cache_hits_total",
		"Lookahead-cache lookups answered from the cache.",
		func(cs CacheStats) float64 { return float64(cs.Hits) })
	counter("setdiscovery_selection_cache_misses_total",
		"Lookahead-cache lookups that found no entry and computed.",
		func(cs CacheStats) float64 { return float64(cs.Misses) })
	counter("setdiscovery_selection_cache_evictions_total",
		"Lookahead-cache entries evicted by the bounded stores.",
		func(cs CacheStats) float64 { return float64(cs.Evictions) })

	m.family("setdiscovery_selection_cache_entries", "Live lookahead-cache entries per collection.", "gauge")
	for _, c := range rows {
		m.sample("setdiscovery_selection_cache_entries", fmt.Sprintf(`collection=%q`, escapeLabel(c.name)), float64(c.cache.Entries))
	}

	m.serve(w)
}
