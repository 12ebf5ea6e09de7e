package strategy

import (
	"fmt"
	"math"

	"setdiscovery/internal/cache"
	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
)

// CacheEntry is one lookahead-cache entry in a strategy-neutral form, for
// moving a factory's cache between processes: a freshly added engine warmed
// from a peer, or a restarted one reloading what it persisted.
type CacheEntry struct {
	Key cache.Key
	// Entity is the entity a k-LP search selected (0 when it found none, and
	// for gain-k).
	Entity dataset.Entity
	// Value is the k-LP bound (exact or certified), or the bits of a gain-k
	// entropy.
	Value uint64
	// Found reports whether the k-LP search selected an entity under its
	// upper limit.
	Found bool
}

// ExportCache returns up to max entries of the shared lookahead cache,
// recently used ones first. Entries are keyed by sub-collection fingerprint
// and cache parameters, so they only mean something to a factory of the
// same configuration (name, metric, k, q).
func (s *KLP) ExportCache(max int) []CacheEntry {
	raw := s.cache.Export(max)
	out := make([]CacheEntry, len(raw))
	for i, e := range raw {
		out[i] = CacheEntry{Key: e.Key, Entity: e.Val.entity, Value: uint64(e.Val.val), Found: e.Val.found}
	}
	return out
}

// ImportCache validates entries exported by a factory of the same
// configuration and stores them in the shared cache; on error nothing is
// stored. Bounds must lie in [0, cost.Inf], the range every search result
// falls in.
func (s *KLP) ImportCache(entries []CacheEntry) error {
	for _, e := range entries {
		if e.Value > uint64(cost.Inf) {
			return fmt.Errorf("strategy: k-LP cache bound %d out of range", e.Value)
		}
	}
	for _, e := range entries {
		s.cache.Put(e.Key, cacheEntry{entity: e.Entity, val: cost.Value(e.Value), found: e.Found})
	}
	return nil
}

// CacheStats reports the memo cache's counters; the unmemoised variant
// reports zeroes.
func (g *GainK) CacheStats() cache.Stats {
	if g.cache == nil {
		return cache.Stats{}
	}
	return g.cache.Stats()
}

// ExportCache is KLP.ExportCache for the memo cache; the unmemoised variant
// exports nothing.
func (g *GainK) ExportCache(max int) []CacheEntry {
	if g.cache == nil {
		return nil
	}
	raw := g.cache.Export(max)
	out := make([]CacheEntry, len(raw))
	for i, e := range raw {
		out[i] = CacheEntry{Key: e.Key, Value: math.Float64bits(e.Val)}
	}
	return out
}

// ImportCache is KLP.ImportCache for the memo cache. Entropies must be
// finite and non-negative; the unmemoised variant has no cache to import
// into.
func (g *GainK) ImportCache(entries []CacheEntry) error {
	if len(entries) == 0 {
		return nil
	}
	if g.cache == nil {
		return fmt.Errorf("strategy: %s keeps no cache", g.Name())
	}
	for _, e := range entries {
		v := math.Float64frombits(e.Value)
		if e.Found || e.Entity != 0 || !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("strategy: malformed gain-k cache entry %+v", e)
		}
	}
	for _, e := range entries {
		g.cache.Put(e.Key, math.Float64frombits(e.Value))
	}
	return nil
}
