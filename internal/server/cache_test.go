package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"setdiscovery"
)

// warmServer resolves one session per collection set so the engine's
// lookahead cache holds the popular prefix states.
func warmServer(t *testing.T, ts string, c *setdiscovery.Collection) {
	t.Helper()
	for _, name := range c.Names() {
		oracle, err := c.TargetOracle(name)
		if err != nil {
			t.Fatal(err)
		}
		res := resolve(t, ts, CreateSessionRequest{}, oracle)
		if res.Target != name {
			t.Fatalf("warm-up session found %q, want %q", res.Target, name)
		}
	}
}

// askedOracle records the entity questions it answers, in order.
type askedOracle struct {
	setdiscovery.Oracle
	asked []string
}

func (o *askedOracle) Answer(entity string) setdiscovery.Answer {
	o.asked = append(o.asked, entity)
	return o.Oracle.Answer(entity)
}

// coldSequence is the reference question sequence for target: a discovery
// over a fresh paper collection, with cold lookahead caches.
func coldSequence(t *testing.T, target string) []string {
	t.Helper()
	c, err := setdiscovery.NewCollection(paperSets())
	if err != nil {
		t.Fatal(err)
	}
	o, err := c.TargetOracle(target)
	if err != nil {
		t.Fatal(err)
	}
	rec := &askedOracle{Oracle: o}
	if _, err := c.Discover(nil, rec); err != nil {
		t.Fatal(err)
	}
	return rec.asked
}

// servesWarm resolves target on the engine at ts and requires the reference
// question sequence, answered from c's lookahead cache alone: hits, and no
// misses.
func servesWarm(t *testing.T, ts string, c *setdiscovery.Collection, target string) {
	t.Helper()
	o, err := c.TargetOracle(target)
	if err != nil {
		t.Fatal(err)
	}
	rec := &askedOracle{Oracle: o}
	before := c.SelectionCacheStats()
	if res := resolve(t, ts, CreateSessionRequest{}, rec); res.Target != target {
		t.Fatalf("warmed engine found %q, want %q", res.Target, target)
	}
	after := c.SelectionCacheStats()
	if want := coldSequence(t, target); !reflect.DeepEqual(rec.asked, want) {
		t.Fatalf("warmed engine asked %v, cold reference asked %v", rec.asked, want)
	}
	if after.Hits == before.Hits || after.Misses != before.Misses {
		t.Fatalf("warmed engine did not serve from its imported cache: before %+v after %+v", before, after)
	}
}

// getShard fetches a collection's binary cache shard.
func getShard(t *testing.T, ts, collection string) []byte {
	t.Helper()
	resp, err := http.Get(ts + "/v1/cache/shard?collection=" + collection)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export shard: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("export shard: content type %q", ct)
	}
	return body
}

// putShard imports a binary shard, returning the HTTP status and response.
func putShard(t *testing.T, ts, collection string, shard []byte) (int, CacheShardImportResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, ts+"/v1/cache/shard?collection="+collection, bytes.NewReader(shard))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack CacheShardImportResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, ack
}

// TestCacheShardRoundTrip pins the warm-shard wire surface: a warmed
// engine's shard imports into a cold engine serving the same collection
// content, the cold engine's stats show the merged entries, and its first
// session asks the reference questions from the imported entries alone.
func TestCacheShardRoundTrip(t *testing.T) {
	_, warmTS, warmC := newTestServer(t)
	warmServer(t, warmTS.URL, warmC)

	shard := getShard(t, warmTS.URL, "paper")
	if len(shard) == 0 {
		t.Fatal("warmed server exported an empty shard")
	}

	_, coldTS, coldC := newTestServer(t)
	code, ack := putShard(t, coldTS.URL, "paper", shard)
	if code != http.StatusOK {
		t.Fatalf("import shard: status %d", code)
	}
	if ack.Collection != "paper" || ack.Imported == 0 {
		t.Fatalf("import shard: ack %+v", ack)
	}

	var stats StatsResponse
	if code := do(t, "GET", coldTS.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if len(stats.Collections) != 1 || stats.Collections[0].Cache.Entries != ack.Imported {
		t.Fatalf("cold server stats after import: %+v", stats.Collections)
	}
	servesWarm(t, coldTS.URL, coldC, "S7")

	// Error surface: missing/unknown collections and corrupt bodies.
	if resp, err := http.Get(coldTS.URL + "/v1/cache/shard"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("export without collection: status %d", resp.StatusCode)
		}
	}
	if resp, err := http.Get(coldTS.URL + "/v1/cache/shard?collection=nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("export of unknown collection: status %d", resp.StatusCode)
		}
	}
	if code, _ := putShard(t, coldTS.URL, "paper", []byte("garbage")); code != http.StatusBadRequest {
		t.Fatalf("import of garbage shard: status %d", code)
	}
	if resp, err := http.Get(coldTS.URL + "/v1/cache/shard?collection=paper&max=0"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("export with max=0: status %d", resp.StatusCode)
		}
	}
}

// TestStatsCacheCounters: serving sessions moves the per-collection cache
// counters visible in /v1/stats.
func TestStatsCacheCounters(t *testing.T) {
	_, ts, c := newTestServer(t)
	warmServer(t, ts.URL, c)
	warmServer(t, ts.URL, c) // second pass rides the warm cache

	var stats StatsResponse
	if code := do(t, "GET", ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if len(stats.Collections) != 1 {
		t.Fatalf("stats collections: %+v", stats.Collections)
	}
	cs := stats.Collections[0].Cache
	if cs.Entries == 0 || cs.Hits == 0 || cs.Misses == 0 {
		t.Fatalf("cache counters never moved: %+v", cs)
	}
}

// TestCachePersistReload pins the restart layer: PersistCaches writes one
// shard per collection, and a new server registering the same collection
// under the same directory starts warm — its first session asks the
// reference questions from the reloaded entries alone. A corrupt or
// version-1 shard costs a logged cold start.
func TestCachePersistReload(t *testing.T) {
	dir := t.TempDir()
	srv, ts, c := newTestServer(t, WithCachePersist(dir))
	warmServer(t, ts.URL, c)
	warmed := c.SelectionCacheStats().Entries
	if warmed == 0 {
		t.Fatal("warm-up left no cache entries")
	}
	if err := srv.PersistCaches(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "paper.sdcs")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("persisted shard missing: %v", err)
	}

	// A same-content collection registered on a fresh server under the same
	// persist dir loads the shard at Register time.
	c2, err := setdiscovery.NewCollection(paperSets())
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(WithCachePersist(dir))
	if err := srv2.Register("paper", c2); err != nil {
		t.Fatal(err)
	}
	if got := c2.SelectionCacheStats().Entries; got != warmed {
		t.Fatalf("restarted server loaded %d entries, want %d", got, warmed)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	servesWarm(t, ts2.URL, c2, "S7")

	// A corrupt shard, or a version-1 shard of the collection-wide memo the
	// lookahead caches replaced, is logged and swallowed, never fatal to
	// Register.
	shard, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Clone(shard)
	v1[4] = 1
	for name, data := range map[string][]byte{"corrupt": []byte("junk"), "version-1": v1} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c3, err := setdiscovery.NewCollection(paperSets())
		if err != nil {
			t.Fatal(err)
		}
		var logged []string
		srv3 := New(WithCachePersist(dir), WithLogf(func(format string, args ...any) {
			logged = append(logged, fmt.Sprintf(format, args...))
		}))
		if err := srv3.Register("paper", c3); err != nil {
			t.Fatal(err)
		}
		if got := c3.SelectionCacheStats().Entries; got != 0 {
			t.Fatalf("%s shard imported %d entries", name, got)
		}
		if len(logged) != 1 || !strings.Contains(logged[0], "loading cache shard") {
			t.Fatalf("%s shard: logged %q, want one load failure", name, logged)
		}
	}

	// Without WithCachePersist, PersistCaches is a no-op.
	srv4 := New()
	if err := srv4.PersistCaches(); err != nil {
		t.Fatal(err)
	}
}
