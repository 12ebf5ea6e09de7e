package discovery

import (
	"strings"

	"setdiscovery/internal/cache"
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

func (w *stateWriter) u64(v uint64) {
	w.buf = append(w.buf,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func (r *stateReader) u64() (uint64, error) {
	if len(r.data) < 8 {
		return 0, corrupt("truncated word")
	}
	v := uint64(r.data[0])<<56 | uint64(r.data[1])<<48 | uint64(r.data[2])<<40 |
		uint64(r.data[3])<<32 | uint64(r.data[4])<<24 | uint64(r.data[5])<<16 |
		uint64(r.data[6])<<8 | uint64(r.data[7])
	r.data = r.data[8:]
	return v, nil
}

// EncodeCacheShard serializes the first MaxCacheSections sections, guarded
// by c's content fingerprint.
func EncodeCacheShard(c *dataset.Collection, sections []CacheSection) []byte {
	if len(sections) > MaxCacheSections {
		sections = sections[:MaxCacheSections]
	}
	w := &stateWriter{buf: make([]byte, 0, 512)}
	w.buf = append(w.buf, cacheShardMagic...)
	w.u8(cacheShardVersion)
	w.fingerprint(c.ContentFingerprint())
	w.uvarint(uint64(len(sections)))
	for _, s := range sections {
		w.uvarint(uint64(len(s.Strategy)))
		w.buf = append(w.buf, s.Strategy...)
		w.u8(byte(s.Metric))
		w.uvarint(uint64(s.K))
		w.uvarint(uint64(s.Q))
		w.uvarint(uint64(len(s.Entries)))
		for _, e := range s.Entries {
			w.u64(e.Key.Hi)
			w.u64(e.Key.Lo)
			w.u64(e.Key.Aux)
			w.bool(e.Found)
			w.uvarint(uint64(e.Entity))
			w.uvarint(e.Value)
		}
	}
	return w.buf
}

// DecodeCacheShard parses a shard encoded by EncodeCacheShard, rejecting
// shards from a different collection. Strategy names and parameters are
// framing-checked only; the caller resolves them to factories, whose
// ImportCache validates the values.
func DecodeCacheShard(c *dataset.Collection, data []byte) ([]CacheSection, error) {
	if len(data) < len(cacheShardMagic)+1 || string(data[:4]) != cacheShardMagic {
		return nil, corrupt("bad shard magic")
	}
	if data[4] != cacheShardVersion {
		return nil, corrupt("unknown shard version %d", data[4])
	}
	r := &stateReader{data: data[5:]}
	fp, err := r.fingerprint()
	if err != nil {
		return nil, err
	}
	if fp != c.ContentFingerprint() {
		return nil, corrupt("shard was exported from a different collection")
	}
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if n > MaxCacheSections {
		return nil, corrupt("%d sections exceed the cap of %d", n, MaxCacheSections)
	}
	sections := make([]CacheSection, 0, n)
	for i := 0; i < n; i++ {
		s, err := r.cacheSection(c)
		if err != nil {
			return nil, err
		}
		for _, prev := range sections {
			if prev.Strategy == s.Strategy && prev.Metric == s.Metric && prev.K == s.K && prev.Q == s.Q {
				return nil, corrupt("duplicate section for %s", s.Strategy)
			}
		}
		sections = append(sections, s)
	}
	if len(r.data) != 0 {
		return nil, corrupt("%d trailing bytes", len(r.data))
	}
	return sections, nil
}

// cacheSection reads one section. Parameter ceilings match the snapshot
// configuration's; q may be 0 because strategies without a beam ignore it.
func (r *stateReader) cacheSection(c *dataset.Collection) (CacheSection, error) {
	var s CacheSection
	nameLen, err := r.uvarint()
	if err != nil {
		return s, err
	}
	if nameLen == 0 || nameLen > 64 || nameLen > uint64(len(r.data)) {
		return s, corrupt("bad strategy name length %d", nameLen)
	}
	s.Strategy = string(r.data[:nameLen])
	r.data = r.data[nameLen:]
	if s.Strategy != strings.ToLower(s.Strategy) {
		return s, corrupt("strategy name %q is not lower-case", s.Strategy)
	}
	metric, err := r.u8()
	if err != nil {
		return s, err
	}
	if metric > byte(cost.H) {
		return s, corrupt("unknown metric %d", metric)
	}
	s.Metric = cost.Metric(metric)
	for _, f := range []struct {
		dst      *int
		min, max uint64
	}{{&s.K, 1, 64}, {&s.Q, 0, 1 << 20}} {
		v, err := r.uvarint()
		if err != nil {
			return s, err
		}
		if v < f.min || v > f.max {
			return s, corrupt("strategy parameter %d out of range [%d, %d]", v, f.min, f.max)
		}
		*f.dst = int(v)
	}
	n, err := r.count()
	if err != nil {
		return s, err
	}
	// count bounds n by one byte per entry; an entry takes at least
	// minEntryBytes, and holding n of them costs more than that in memory.
	const minEntryBytes = 3*8 + 3
	if n > len(r.data)/minEntryBytes {
		return s, corrupt("%d entries exceed the remaining input", n)
	}
	s.Entries = make([]strategy.CacheEntry, n)
	seen := make(map[cache.Key]bool, n)
	for i := range s.Entries {
		e := &s.Entries[i]
		for _, word := range []*uint64{&e.Key.Hi, &e.Key.Lo, &e.Key.Aux} {
			if *word, err = r.u64(); err != nil {
				return s, err
			}
		}
		if seen[e.Key] {
			return s, corrupt("duplicate key in section %s", s.Strategy)
		}
		seen[e.Key] = true
		if e.Found, err = r.bool(); err != nil {
			return s, err
		}
		if e.Entity, err = r.entity(); err != nil {
			return s, err
		}
		if int(e.Entity) >= c.DistinctEntities() {
			return s, corrupt("shard entity %d of %d", e.Entity, c.DistinctEntities())
		}
		if e.Value, err = r.uvarint(); err != nil {
			return s, err
		}
	}
	return s, nil
}
