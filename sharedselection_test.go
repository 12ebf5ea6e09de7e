package setdiscovery

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// unsureFirstOracle answers "don't know" to its first question, then defers
// to the inner target oracle — forcing the exclusion path, which must bypass
// the lookahead cache's root lookup.
type unsureFirstOracle struct {
	inner Oracle
	first bool
}

func (o *unsureFirstOracle) Answer(entity string) Answer {
	if o.first {
		o.first = false
		return Unknown
	}
	return o.inner.Answer(entity)
}

// firstLieOracle flips its first membership answer, steering the session to
// a wrong candidate whose confirmation the true-target Confirmer then
// rejects — exercising §6 backtracking identically on the shared and
// unshared runs.
type firstLieOracle struct {
	inner Oracle
	lied  bool
}

func (o *firstLieOracle) Answer(entity string) Answer {
	a := o.inner.Answer(entity)
	if !o.lied {
		o.lied = true
		if a == Yes {
			return No
		}
		return Yes
	}
	return a
}

func (o *firstLieOracle) Confirm(setName string) bool {
	if c, ok := o.inner.(Confirmer); ok {
		return c.Confirm(setName)
	}
	return false
}

// discoverAsked runs Discover with a recording oracle and returns the asked
// entity sequence plus the result.
func discoverAsked(t *testing.T, c *Collection, mkOracle func() Oracle, opts ...Option) ([]string, *Result) {
	t.Helper()
	rec := &recordingOracle{inner: mkOracle()}
	res, err := c.Discover(nil, rec, opts...)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	return rec.asked, res
}

// freshCollection builds a paper collection with cold lookahead caches.
func freshCollection(t testing.TB) *Collection {
	t.Helper()
	c, err := NewCollection(paperSets())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSharedSelectionMatchesUnshared is the sharing-equivalence pin at the
// public layer: across strategies and multiple-choice batches, discovery
// over a collection whose lookahead caches earlier sessions already filled
// asks byte-identical question sequences to the same discovery on a fresh
// collection — and a second run over the now-warm caches (the pure hit path)
// stays identical too.
func TestSharedSelectionMatchesUnshared(t *testing.T) {
	optsets := []struct {
		opts    []Option
		caching bool // the strategy keeps a lookahead cache
	}{
		{nil, true},
		{[]Option{WithStrategy("klple"), WithK(3), WithQ(5)}, true},
		{[]Option{WithStrategy("klplve"), WithK(3), WithQ(5)}, true},
		{[]Option{WithStrategy("infogain")}, false},
		{[]Option{WithStrategy("most-even"), WithBatchSize(3)}, false},
	}
	for _, tc := range optsets {
		shared := freshCollection(t)
		for _, name := range shared.Names() {
			mk := func(c *Collection) func() Oracle {
				return func() Oracle {
					o, err := c.TargetOracle(name)
					if err != nil {
						t.Fatal(err)
					}
					return o
				}
			}
			unshared := freshCollection(t)
			wantAsked, want := discoverAsked(t, unshared, mk(unshared), tc.opts...)
			for run := 0; run < 2; run++ { // run 1 replays against warm caches
				gotAsked, got := discoverAsked(t, shared, mk(shared), tc.opts...)
				if !reflect.DeepEqual(gotAsked, wantAsked) {
					t.Fatalf("%s run %d: shared asked %v, unshared asked %v", name, run, gotAsked, wantAsked)
				}
				if got.Target != want.Target || got.Questions != want.Questions ||
					got.Interactions != want.Interactions || got.Backtracks != want.Backtracks ||
					!reflect.DeepEqual(got.Candidates, want.Candidates) {
					t.Fatalf("%s run %d: shared result %+v, unshared %+v", name, run, got, want)
				}
			}
		}
		st := shared.SelectionCacheStats()
		if tc.caching && (st.Hits == 0 || st.Entries == 0) {
			t.Fatalf("%v: shared collection never hit its lookahead cache: %+v", tc.opts, st)
		}
		if !tc.caching && st != (SelectionCacheStats{}) {
			t.Fatalf("%v: cacheless strategy moved the cache counters: %+v", tc.opts, st)
		}
	}
}

// TestSharedSelectionWithUnknownsAndBacktracking covers the paths that must
// bypass or replay through the shared lookahead cache without changing a
// single question: exclusions (which bypass the root lookup) and §6
// confirm-and-recover.
func TestSharedSelectionWithUnknownsAndBacktracking(t *testing.T) {
	shared := freshCollection(t)
	for _, name := range shared.Names() {
		inner := func(c *Collection) Oracle {
			o, err := c.TargetOracle(name)
			if err != nil {
				t.Fatal(err)
			}
			return o
		}
		cases := []struct {
			label string
			mk    func(c *Collection) func() Oracle
			opts  []Option
		}{
			{"unknown-first", func(c *Collection) func() Oracle {
				return func() Oracle { return &unsureFirstOracle{inner: inner(c), first: true} }
			}, nil},
			{"backtracking", func(c *Collection) func() Oracle {
				return func() Oracle { return &firstLieOracle{inner: inner(c)} }
			}, []Option{WithBacktracking()}},
		}
		for _, tc := range cases {
			unshared := freshCollection(t)
			wantAsked, want := discoverAsked(t, unshared, tc.mk(unshared), tc.opts...)
			gotAsked, got := discoverAsked(t, shared, tc.mk(shared), tc.opts...)
			if !reflect.DeepEqual(gotAsked, wantAsked) {
				t.Fatalf("%s/%s: shared asked %v, unshared asked %v", name, tc.label, gotAsked, wantAsked)
			}
			if got.Target != want.Target || got.Backtracks != want.Backtracks {
				t.Fatalf("%s/%s: shared result %+v, unshared %+v", name, tc.label, got, want)
			}
		}
	}
}

// TestExportImportSelectionCache pins the warm-shard surface: a warmed
// collection's shard imports into a same-content twin, which then serves a
// session from the imported lookahead entries — hits, no misses — with the
// reference question sequence.
func TestExportImportSelectionCache(t *testing.T) {
	warm := freshCollection(t)
	name := warm.Names()[len(warm.Names())-1]
	mk := func(c *Collection) func() Oracle {
		return func() Oracle {
			o, err := c.TargetOracle(name)
			if err != nil {
				t.Fatal(err)
			}
			return o
		}
	}
	wantAsked, _ := discoverAsked(t, warm, mk(warm))
	var shard bytes.Buffer
	if err := warm.ExportSelectionCache(&shard, 0); err != nil {
		t.Fatal(err)
	}

	cold := freshCollection(t)
	n, err := cold.ImportSelectionCache(bytes.NewReader(shard.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || n != warm.SelectionCacheStats().Entries || cold.SelectionCacheStats().Entries != n {
		t.Fatalf("imported %d entries, warm stats %+v, cold stats %+v",
			n, warm.SelectionCacheStats(), cold.SelectionCacheStats())
	}
	gotAsked, _ := discoverAsked(t, cold, mk(cold))
	if !reflect.DeepEqual(gotAsked, wantAsked) {
		t.Fatalf("warmed twin asked %v, want %v", gotAsked, wantAsked)
	}
	if st := cold.SelectionCacheStats(); st.Hits == 0 || st.Computed != 0 || st.Misses != st.Computed {
		t.Fatalf("warmed twin stats %+v, want hits and zero computed", st)
	}

	// A truncated export carries exactly its cap.
	var one bytes.Buffer
	if err := warm.ExportSelectionCache(&one, 1); err != nil {
		t.Fatal(err)
	}
	if n, err := freshCollection(t).ImportSelectionCache(bytes.NewReader(one.Bytes())); err != nil || n != 1 {
		t.Fatalf("one-entry shard: imported %d, err %v", n, err)
	}

	// A shard from a different collection is rejected with ErrBadSnapshot.
	foreign, err := NewCollection(map[string][]string{
		"X": {"p", "q"}, "Y": {"q", "r"}, "Z": {"p", "r"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := foreign.ImportSelectionCache(bytes.NewReader(shard.Bytes())); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("foreign shard: err %v, want ErrBadSnapshot", err)
	}
	// So is a version-1 shard of the collection-wide memo this cache
	// replaced, and garbage.
	v1 := bytes.Clone(shard.Bytes())
	v1[4] = 1
	if _, err := cold.ImportSelectionCache(bytes.NewReader(v1)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("version-1 shard: err %v, want ErrBadSnapshot", err)
	}
	if _, err := cold.ImportSelectionCache(strings.NewReader("not a shard")); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("garbage shard: err %v, want ErrBadSnapshot", err)
	}
}

// v2Fixture returns a version-2 session envelope with a memo-delta section,
// written by an earlier release: a default-option session over the paper
// collection, suspended after answering its first question truthfully for
// S4.
func v2Fixture(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "snapshot-v2-memo-delta.bin"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestV2SnapshotRestoresLikeV1 pins the read-only version-2 envelope: the
// fixture restores, skips its memo delta, re-snapshots as version 1, and
// asks the same remaining questions as the version-1 envelope of the same
// session.
func TestV2SnapshotRestoresLikeV1(t *testing.T) {
	v2 := v2Fixture(t)
	if v2[4] != 2 {
		t.Fatalf("fixture version = %d, want 2", v2[4])
	}
	src := freshCollection(t)
	oracle, err := src.TargetOracle("S4")
	if err != nil {
		t.Fatal(err)
	}
	twin, err := src.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	if q, done := twin.Next(); !done && !q.IsConfirm() {
		if err := twin.Answer(oracle.Answer(q.Entity)); err != nil {
			t.Fatal(err)
		}
	}
	v1, err := twin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if v1[4] != 1 {
		t.Fatalf("entity session snapshot version = %d, want 1", v1[4])
	}

	var rest [2][]string
	for i, snap := range [][]byte{v1, v2} {
		dst := freshCollection(t)
		restored, err := dst.RestoreSession(snap)
		if err != nil {
			t.Fatalf("restoring version %d: %v", snap[4], err)
		}
		if st := dst.SelectionCacheStats(); st.Entries != 0 {
			t.Fatalf("restoring version %d imported cache entries: %+v", snap[4], st)
		}
		again, err := restored.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if again[4] != 1 {
			t.Fatalf("version %d re-snapshots as version %d, want 1", snap[4], again[4])
		}
		o, err := dst.TargetOracle("S4")
		if err != nil {
			t.Fatal(err)
		}
		rest[i] = driveSession(t, restored, o)
		res, err := restored.Result()
		if err != nil || res.Target != "S4" {
			t.Fatalf("version %d finished with %+v, %v; want S4", snap[4], res, err)
		}
	}
	if len(rest[0]) == 0 || !reflect.DeepEqual(rest[0], rest[1]) {
		t.Fatalf("version 2 asked %v, version-1 twin asked %v", rest[1], rest[0])
	}
}
