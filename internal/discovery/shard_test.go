package discovery

import (
	"bytes"
	"sync"
	"testing"

	"setdiscovery/internal/cache"
	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/strategy"
	"setdiscovery/internal/synth"
	"setdiscovery/internal/testutil"
)

// memoTestCollection is big enough that its sessions touch well over the
// small cache bound used below, so the clock sweep actually evicts.
func memoTestCollection(t *testing.T) *dataset.Collection {
	t.Helper()
	c, err := synth.Generate(synth.Params{N: 60, SizeMin: 8, SizeMax: 14, Alpha: 0.8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSharedSelectionConcurrentEviction hammers one small-bound lookahead
// cache — the factory cache every session over a strategy configuration
// shares — with concurrent solo sessions (plus a batch for mixed load) well
// past its entry cap: every session must still ask exactly the questions a
// fresh, unbounded factory asks — an evicted entry is recomputed, never
// wrong — the store must stay at its bound, and no session may leak pooled
// subsets. Run with -race, this is also the shared cache's data-race proof.
func TestSharedSelectionConcurrentEviction(t *testing.T) {
	c := memoTestCollection(t)

	// Reference sequences, one per target, each from a cold factory.
	want := make([][]Question, c.Len())
	for i := 0; i < c.Len(); i++ {
		res, err := Run(c, nil, TargetOracle{Target: c.Set(i)}, Options{Strategy: strategy.NewKLP(cost.AD, 2).New()})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Asked
	}

	const bound = 64
	const workers = 6
	f := strategy.NewKLP(cost.AD, 2)
	f.SetCacheBound(bound)
	var wg sync.WaitGroup
	errc := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(offset int) {
			defer wg.Done()
			for i := 0; i < c.Len(); i++ {
				target := c.Set((i + offset) % c.Len())
				s, err := NewSession(c, nil, Options{Strategy: f.New()})
				if err != nil {
					errc <- err
					return
				}
				oracle := TargetOracle{Target: target}
				for !s.Done() {
					e, done := s.Next()
					if done {
						break
					}
					if err := s.Answer(oracle.Answer(e)); err != nil {
						errc <- err
						return
					}
				}
				res, err := s.Result()
				if err != nil {
					errc <- err
					return
				}
				if !sameQuestions(res.Asked, want[target.Index]) {
					t.Errorf("target %s: shared question sequence diverged:\nshared:    %v\nreference: %v",
						target.Name, res.Asked, want[target.Index])
					return
				}
				// The final candidate set escapes into the result; every
				// intermediate pooled subset must be back.
				if out := s.scratch.Pool().Stats().Outstanding(); out > 1 {
					t.Errorf("target %s: %d pooled subsets outstanding, want ≤ 1", target.Name, out)
					return
				}
			}
		}(w * 7)
	}
	// Mixed load: a batch drawing its strategy from the same factory runs
	// concurrently with the solo sessions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		const n = 8
		b, err := NewBatch(c, make([][]dataset.Entity, n), f, Options{})
		if err != nil {
			errc <- err
			return
		}
		oracles := make([]Oracle, n)
		for i := range oracles {
			oracles[i] = TargetOracle{Target: c.Set(i)}
		}
		driveBatch(t, b, oracles)
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := f.CacheStats()
	// The bound is spread over the cache's shards and rounded up per shard.
	if max := 64 * ((bound + 63) / 64); st.Entries > max {
		t.Fatalf("cache holds %d entries, bound is %d", st.Entries, max)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions — the hammer never exceeded the bound (stats %+v)", st)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("degenerate hammer: stats %+v", st)
	}
}

// warmFactory resolves every target of c with sessions drawn from one k-LP
// factory and returns it with its cache populated.
func warmFactory(t *testing.T, c *dataset.Collection) *strategy.KLP {
	t.Helper()
	f := strategy.NewKLP(cost.AD, 2)
	for i := 0; i < c.Len(); i++ {
		if _, err := Run(c, nil, TargetOracle{Target: c.Set(i)}, Options{Strategy: f.New()}); err != nil {
			t.Fatal(err)
		}
	}
	if f.CacheStats().Entries == 0 {
		t.Fatal("warm-up produced no cache entries")
	}
	return f
}

// section wraps a factory's whole cache as the shard section of the default
// k-LP configuration.
func section(f *strategy.KLP) CacheSection {
	return CacheSection{Strategy: "klp", Metric: cost.AD, K: 2, Q: 10, Entries: f.ExportCache(1 << 30)}
}

// TestMemoShardRoundTrip pins the shard codec: export a warmed lookahead
// cache, import it into a cold factory, and a session over the importer must
// ask the reference questions with every lookup a hit.
func TestMemoShardRoundTrip(t *testing.T) {
	c := testutil.PaperCollection()
	f := warmFactory(t, c)
	shard := EncodeCacheShard(c, []CacheSection{section(f)})
	sections, err := DecodeCacheShard(c, shard)
	if err != nil {
		t.Fatal(err)
	}
	if len(sections) != 1 || sections[0].Strategy != "klp" || sections[0].K != 2 || sections[0].Q != 10 {
		t.Fatalf("decoded sections %+v", sections)
	}
	cold := strategy.NewKLP(cost.AD, 2)
	if err := cold.ImportCache(sections[0].Entries); err != nil {
		t.Fatal(err)
	}
	if got, want := cold.CacheStats().Entries, f.CacheStats().Entries; got != want {
		t.Fatalf("imported %d entries, want %d", got, want)
	}

	target := c.Set(c.Len() - 1)
	ref, err := Run(c, nil, TargetOracle{Target: target}, Options{Strategy: strategy.NewKLP(cost.AD, 2).New()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, nil, TargetOracle{Target: target}, Options{Strategy: cold.New()})
	if err != nil {
		t.Fatal(err)
	}
	if !sameQuestions(res.Asked, ref.Asked) {
		t.Fatalf("warmed question sequence diverged:\nwarmed:    %v\nreference: %v", res.Asked, ref.Asked)
	}
	if st := cold.CacheStats(); st.Hits == 0 || st.Misses != 0 {
		t.Fatalf("warmed cache stats %+v, want hits and no misses", st)
	}

	// Bounded export: one entry keeps the shard decodeable.
	one := EncodeCacheShard(c, []CacheSection{{Strategy: "klp", Metric: cost.AD, K: 2, Q: 10, Entries: f.ExportCache(1)}})
	if sections, err := DecodeCacheShard(c, one); err != nil || len(sections) != 1 || len(sections[0].Entries) != 1 {
		t.Fatalf("one-entry shard: %+v, err %v", sections, err)
	}
}

// TestMemoShardRejectsForeignAndCorrupt pins the decoder's trust boundary.
func TestMemoShardRejectsForeignAndCorrupt(t *testing.T) {
	c := testutil.PaperCollection()
	f := strategy.NewKLP(cost.AD, 2)
	if _, err := Run(c, nil, TargetOracle{Target: c.Set(0)}, Options{Strategy: f.New()}); err != nil {
		t.Fatal(err)
	}
	sec := section(f)
	shard := EncodeCacheShard(c, []CacheSection{sec})

	other, err := synth.Generate(synth.Params{N: 20, SizeMin: 4, SizeMax: 8, Alpha: 0.8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCacheShard(other, shard); err == nil {
		t.Fatal("shard from a different collection accepted")
	}
	if _, err := DecodeCacheShard(c, shard[:len(shard)-1]); err == nil {
		t.Fatal("truncated shard accepted")
	}
	if _, err := DecodeCacheShard(c, append(bytes.Clone(shard), 0)); err == nil {
		t.Fatal("shard with trailing bytes accepted")
	}
	bad := bytes.Clone(shard)
	bad[0] = 'X'
	if _, err := DecodeCacheShard(c, bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	for _, version := range []byte{1, 99} {
		bad = bytes.Clone(shard)
		bad[4] = version
		if _, err := DecodeCacheShard(c, bad); err == nil {
			t.Fatalf("version %d accepted", version)
		}
	}

	mutants := map[string]func(s *CacheSection){
		"upper-case name": func(s *CacheSection) { s.Strategy = "KLP" },
		"zero k":          func(s *CacheSection) { s.K = 0 },
		"bad metric":      func(s *CacheSection) { s.Metric = 7 },
		"foreign entity": func(s *CacheSection) {
			s.Entries = append(s.Entries, strategy.CacheEntry{Key: cache.Key{Hi: 1}, Entity: dataset.Entity(c.DistinctEntities()), Found: true})
		},
		"duplicate key": func(s *CacheSection) { s.Entries = append(s.Entries, s.Entries[0]) },
	}
	for name, mutate := range mutants {
		m := sec
		m.Entries = append([]strategy.CacheEntry(nil), sec.Entries...)
		mutate(&m)
		if _, err := DecodeCacheShard(c, EncodeCacheShard(c, []CacheSection{m})); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if _, err := DecodeCacheShard(c, EncodeCacheShard(c, []CacheSection{sec, sec})); err == nil {
		t.Fatal("duplicate section accepted")
	}
}
