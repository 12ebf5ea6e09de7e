package discovery

import (
	"math"
	"strings"

	"setdiscovery/internal/cache"
	"setdiscovery/internal/codec"
	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/strategy"
)

// Selection-cache shards: a versioned, fingerprint-guarded binary encoding of
// the hottest entries of a collection's lookahead caches (Algorithm 1's
// memo, shared by every session over one strategy factory). One format
// serves both transport layers of the cache fabric: the /v1/cache/shard
// export/import surface that warms a freshly added engine from a healthy
// peer, and the -cache-persist file a restarted setdiscd reloads.
//
// Layout:
//
//	"SDCS" | version (2) | collection content fingerprint (16 bytes)
//	      | section count | sections
//
// A section holds one strategy factory's cache: the factory's strategy key —
// name, metric byte (0 = AD, 1 = H), k, q — then an entry count and the
// entries. An entry is key.Hi | key.Lo | key.Aux (8-byte big-endian each:
// the key words are high-entropy hashes, so varints would only pad them),
// the found flag, the entity and the value (both uvarints).
//
// Version 1 shards held the entries of a collection-wide selection memo that
// no longer exists; decoders reject them like any other unknown version.
//
// Decoders treat input as untrusted, like the session-state decoders: counts
// are bounded by the remaining input, entities are range-checked against the
// collection, a foreign collection fingerprint is rejected, duplicate
// sections and duplicate keys are rejected (so an accepted shard imports
// exactly its entry count), and malformed input yields an error, never a
// panic (fuzz-enforced).

// cacheShardMagic identifies a selection-cache shard.
const cacheShardMagic = "SDCS"

// cacheShardVersion is the shard format version; decoders reject versions
// they do not know.
const cacheShardVersion = 2

// MaxCacheSections bounds the sections of one shard. Each imported section
// picks or creates a strategy factory, so the cap bounds what one hostile
// shard can allocate; encoders stop at it.
const MaxCacheSections = 64

// CacheSection is one strategy factory's part of a selection-cache shard.
// Strategy is the lower-case name the factory was created under.
type CacheSection struct {
	Strategy string
	Metric   cost.Metric
	K, Q     int
	Entries  []strategy.CacheEntry
}

// EncodeCacheShard serializes the first MaxCacheSections sections, guarded
// by c's content fingerprint.
func EncodeCacheShard(c *dataset.Collection, sections []CacheSection) []byte {
	if len(sections) > MaxCacheSections {
		sections = sections[:MaxCacheSections]
	}
	w := codec.Writer{Buf: make([]byte, 0, 512)}
	w.Buf = append(w.Buf, cacheShardMagic...)
	w.U8(cacheShardVersion)
	writeFingerprint(&w, c.ContentFingerprint())
	w.Uvarint(uint64(len(sections)))
	for _, s := range sections {
		w.String(s.Strategy)
		w.U8(byte(s.Metric))
		w.Uvarint(uint64(s.K))
		w.Uvarint(uint64(s.Q))
		w.Uvarint(uint64(len(s.Entries)))
		for _, e := range s.Entries {
			w.BE64(e.Key.Hi)
			w.BE64(e.Key.Lo)
			w.BE64(e.Key.Aux)
			w.Bool(e.Found)
			w.Uvarint(uint64(e.Entity))
			w.Uvarint(e.Value)
		}
	}
	return w.Buf
}

// DecodeCacheShard parses a shard encoded by EncodeCacheShard, rejecting
// shards from a different collection. Strategy names and parameters are
// framing-checked only; the caller resolves them to factories, whose
// ImportCache validates the values.
func DecodeCacheShard(c *dataset.Collection, data []byte) ([]CacheSection, error) {
	r := codec.NewReader(data, errCorruptState)
	r.Magic(cacheShardMagic)
	if v := r.U8(); v != cacheShardVersion {
		r.Fail("unknown shard version %d", v)
	}
	if fp := readFingerprint(&r); fp != c.ContentFingerprint() {
		r.Fail("shard was exported from a different collection")
	}
	type sectionKey struct {
		strategy string
		metric   cost.Metric
		k, q     int
	}
	seen := make(map[sectionKey]bool)
	sections := codec.List(&r, 1, MaxCacheSections, func() CacheSection {
		s := readCacheSection(&r, c)
		if key := (sectionKey{s.Strategy, s.Metric, s.K, s.Q}); seen[key] {
			r.Fail("duplicate section for %s", s.Strategy)
		} else {
			seen[key] = true
		}
		return s
	})
	if err := r.End(); err != nil {
		return nil, err
	}
	return sections, nil
}

// minEntryBytes is the smallest encoded cache entry: three key words, the
// found flag, the entity and the value.
const minEntryBytes = 3*8 + 3

// readCacheSection reads one section. Parameter ceilings match the snapshot
// configuration's; q may be 0 because strategies without a beam ignore it.
func readCacheSection(r *codec.Reader, c *dataset.Collection) CacheSection {
	s := CacheSection{Strategy: r.String()}
	if len(s.Strategy) == 0 || len(s.Strategy) > 64 || s.Strategy != strings.ToLower(s.Strategy) {
		r.Fail("bad strategy name %q", s.Strategy)
	}
	s.Metric = cost.Metric(readByte(r, byte(cost.H), "metric"))
	if s.K = int(r.Uint(64)); s.K < 1 {
		r.Fail("strategy parameter k = 0")
	}
	s.Q = int(r.Uint(1 << 20))
	seen := make(map[cache.Key]bool)
	s.Entries = codec.List(r, minEntryBytes, math.MaxInt32, func() strategy.CacheEntry {
		e := strategy.CacheEntry{Key: cache.Key{Hi: r.BE64(), Lo: r.BE64(), Aux: r.BE64()}}
		if seen[e.Key] {
			r.Fail("duplicate key in section %s", s.Strategy)
		}
		seen[e.Key] = true
		e.Found, e.Entity, e.Value = r.Bool(), readEntity(r), r.Uvarint()
		if int(e.Entity) >= c.DistinctEntities() {
			r.Fail("shard entity %d of %d", e.Entity, c.DistinctEntities())
		}
		return e
	})
	return s
}
