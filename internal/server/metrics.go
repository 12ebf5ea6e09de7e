package server

// Prometheus text-format exposition (GET /v1/metrics): the same counters
// /v1/stats reports as JSON, rendered for scrapers by obs.Writer.

import (
	"net/http"
	"sort"
	"time"

	"setdiscovery/internal/obs"
)

// handleMetrics serves GET /v1/metrics on an engine: store occupancy by
// resource kind, capacity and TTL configuration, and each collection's
// selection-cache fabric counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var m obs.Writer
	sessions, batches := s.store.Counts()

	m.Family("setdiscovery_uptime_seconds", "Seconds since the server started.", "gauge")
	m.Sample("setdiscovery_uptime_seconds", float64(int64(time.Since(s.started)/time.Second)))

	m.Family("setdiscovery_resources", "Live store entries by resource kind.", "gauge")
	m.Sample("setdiscovery_resources", float64(sessions), "kind", "session")
	m.Sample("setdiscovery_resources", float64(batches), "kind", "batch")

	m.Family("setdiscovery_live_discoveries", "Capacity weight of live resources (a batch counts every member).", "gauge")
	m.Sample("setdiscovery_live_discoveries", float64(s.store.Used()))

	m.Family("setdiscovery_max_sessions", "Configured live-discovery capacity.", "gauge")
	m.Sample("setdiscovery_max_sessions", float64(s.store.max))

	m.Family("setdiscovery_session_ttl_seconds", "Configured resource TTL.", "gauge")
	m.Sample("setdiscovery_session_ttl_seconds", float64(int64(s.store.ttl/time.Second)))

	m.Family("setdiscovery_sliding_ttl", "Whether the TTL slides on access (1) or is fixed from creation (0).", "gauge")
	m.Sample("setdiscovery_sliding_ttl", obs.Bool(s.sliding))

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

	m.Family("setdiscovery_collection_sets", "Registered sets per collection.", "gauge")
	for _, c := range rows {
		m.Sample("setdiscovery_collection_sets", float64(c.sets), "collection", c.name)
	}
	m.Family("setdiscovery_collection_entities", "Distinct entities per collection.", "gauge")
	for _, c := range rows {
		m.Sample("setdiscovery_collection_entities", float64(c.entities), "collection", c.name)
	}
	m.Family("setdiscovery_collection_tree", "Whether a prebuilt decision tree is registered (1) for the collection.", "gauge")
	for _, c := range rows {
		m.Sample("setdiscovery_collection_tree", obs.Bool(c.tree), "collection", c.name)
	}

	counter := func(name, help string, get func(CacheStats) float64) {
		m.Family(name, help, "counter")
		for _, c := range rows {
			m.Sample(name, get(c.cache), "collection", c.name)
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

	m.Family("setdiscovery_selection_cache_entries", "Live lookahead-cache entries per collection.", "gauge")
	for _, c := range rows {
		m.Sample("setdiscovery_selection_cache_entries", float64(c.cache.Entries), "collection", c.name)
	}

	m.Serve(w)
}
