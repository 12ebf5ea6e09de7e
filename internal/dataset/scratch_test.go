package dataset

import (
	"testing"

	"setdiscovery/internal/bitset"
	"setdiscovery/internal/rng"
)

// scratchTestCollection builds a small collection with overlapping sets so
// sub-collections have informative and uninformative entities.
func scratchTestCollection(t *testing.T) *Collection {
	t.Helper()
	c, err := FromIDSets(
		[]string{"a", "b", "c", "d", "e"},
		[][]Entity{
			{0, 1, 2, 9},
			{0, 2, 3},
			{1, 2, 4, 9},
			{2, 5, 6},
			{0, 6, 7, 8},
		}, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func sameEntityCounts(a, b []EntityCount) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestInformativeEntitiesIntoMatches checks the scratch path against the
// allocating path on both counting strategies (dense array and sparse map),
// across every 2+-member sub-collection of the test fixture.
func TestInformativeEntitiesIntoMatches(t *testing.T) {
	c := scratchTestCollection(t)
	subs := []*Subset{
		c.All(),
		c.SubsetOf([]uint32{0, 1}),
		c.SubsetOf([]uint32{0, 2, 4}),
		c.SubsetOf([]uint32{1, 3}),
		c.SubsetOf([]uint32{2}),
		c.SubsetOf(nil),
	}
	for _, forceSparse := range []bool{false, true} {
		name := "dense"
		if forceSparse {
			name = "sparse"
			restore := SetDenseThresholdForTest(0)
			defer restore()
		}
		sc := NewScratch()
		for i, sub := range subs {
			want := sub.InformativeEntities()
			got := sub.InformativeEntitiesInto(sc)
			if !sameEntityCounts(got, want) {
				t.Errorf("%s path, sub %d: Into = %v, want %v", name, i, got, want)
			}
			// A second call on the same scratch must still be clean.
			again := sub.InformativeEntitiesInto(sc)
			if !sameEntityCounts(again, want) {
				t.Errorf("%s path, sub %d: second Into = %v, want %v (dirty scratch)", name, i, again, want)
			}
		}
	}
}

// TestInformativeEntitiesIntoEverySize compares the scratch count with the
// allocating one on one warm scratch over sub-collections of every size from
// 2 to the whole collection, each followed by a small random one, so counts
// that touch a few entities of a wide ID range and counts that touch most of
// it alternate over the same reused arrays.
func TestInformativeEntitiesIntoEverySize(t *testing.T) {
	r := rng.New(5)
	const universe = 6000
	elems := make([][]Entity, 240)
	names := make([]string, len(elems))
	for i := range elems {
		names[i] = string(rune('A'+i%26)) + string(rune('a'+i/26))
		center := r.Intn(universe - 200)
		for j := r.IntRange(20, 40); j > 0; j-- {
			elems[i] = append(elems[i], Entity(center+r.Intn(200)))
		}
		elems[i] = append(elems[i], Entity(r.Intn(universe)))
	}
	c, err := FromIDSets(names, elems, universe, true)
	if err != nil {
		t.Fatal(err)
	}
	order := make([]uint32, c.Len())
	for i, p := range r.Perm(c.Len()) {
		order[i] = uint32(p)
	}
	sc := NewScratch()
	check := func(sub *Subset) {
		t.Helper()
		if got, want := sub.InformativeEntitiesInto(sc), sub.InformativeEntities(); !sameEntityCounts(got, want) {
			t.Fatalf("%d-set sub-collection: Into = %v, want %v", sub.Size(), got, want)
		}
	}
	for size := 2; size <= c.Len(); size++ {
		check(c.SubsetOf(order[:size]))
		check(c.SubsetOf(r.SampleUint32(order, r.IntRange(2, 5))))
	}
}

// TestInformativeEntitiesDenseSparseEquality forces denseThreshold down so
// the map path runs at a universe size where the dense path is also
// feasible, and checks both produce identical results — previously only the
// dense path was exercised at realistic universe sizes.
func TestInformativeEntitiesDenseSparseEquality(t *testing.T) {
	c := scratchTestCollection(t)
	subs := []*Subset{c.All(), c.SubsetOf([]uint32{0, 1, 4}), c.SubsetOf([]uint32{1, 2})}
	for i, sub := range subs {
		dense := sub.InformativeEntities()
		restore := SetDenseThresholdForTest(0)
		sparse := sub.InformativeEntities()
		restore()
		if !sameEntityCounts(dense, sparse) {
			t.Errorf("sub %d: dense path %v != sparse path %v", i, dense, sparse)
		}
	}
}

func TestPartitionScratchMatchesPartition(t *testing.T) {
	c := scratchTestCollection(t)
	sc := NewScratch()
	sub := c.All()
	for e := Entity(0); e < 10; e++ {
		w1, wo1 := sub.Partition(e)
		w2, wo2 := sub.PartitionScratch(e, sc)
		if w1.Size() != w2.Size() || wo1.Size() != wo2.Size() {
			t.Fatalf("entity %d: sizes (%d,%d) vs (%d,%d)", e, w1.Size(), wo1.Size(), w2.Size(), wo2.Size())
		}
		if !sameMembers(w1, w2) || !sameMembers(wo1, wo2) {
			t.Fatalf("entity %d: members differ", e)
		}
		w2.Release()
		wo2.Release()
	}
	if out := sc.Pool().Stats().Outstanding(); out != 0 {
		t.Fatalf("pool outstanding = %d after releasing everything", out)
	}
}

func sameMembers(a, b *Subset) bool {
	am, bm := a.Members(), b.Members()
	if len(am) != len(bm) {
		return false
	}
	for i := range am {
		if am[i] != bm[i] {
			return false
		}
	}
	return true
}

// TestPartitionScratchRecursive splits recursively — the tree-build shape —
// releasing children after use, and checks the pool reaches a small steady
// state instead of growing with the recursion.
func TestPartitionScratchRecursive(t *testing.T) {
	c := scratchTestCollection(t)
	sc := NewScratch()
	var walk func(sub *Subset)
	walk = func(sub *Subset) {
		if sub.Size() <= 1 {
			return
		}
		for _, ec := range sub.InformativeEntitiesInto(sc) {
			with, without := sub.PartitionScratch(ec.Entity, sc)
			walk(with)
			walk(without)
			with.Release()
			without.Release()
			break // one split per level is enough for the shape
		}
	}
	walk(c.All())
	st := sc.Pool().Stats()
	if st.Outstanding() != 0 {
		t.Fatalf("pool outstanding = %d after recursive walk", st.Outstanding())
	}
	if st.Free > 16 {
		t.Fatalf("pool free list grew to %d; expected a depth-bounded steady state", st.Free)
	}
}

func TestReleaseOnUnpooledSubsetIsNoop(t *testing.T) {
	c := scratchTestCollection(t)
	sub := c.All()
	sub.Release() // must not panic or corrupt
	if sub.Size() != c.Len() {
		t.Fatalf("Release damaged an unpooled subset")
	}
	w, wo := sub.Partition(0)
	w.Release()
	wo.Release()
	if w.Size() == 0 && wo.Size() == 0 {
		t.Fatalf("Release damaged Partition results")
	}
}

func TestUnpoolDetaches(t *testing.T) {
	c := scratchTestCollection(t)
	sc := NewScratch()
	with, without := c.All().PartitionScratch(0, sc)
	with.Unpool()
	members := append([]uint32(nil), with.Members()...)
	with.Release() // no-op now
	without.Release()
	// Force pool reuse; the unpooled subset must be unaffected.
	a, b := c.All().PartitionScratch(2, sc)
	a.Release()
	b.Release()
	got := with.Members()
	if len(got) != len(members) {
		t.Fatalf("unpooled subset changed after pool reuse: %v vs %v", got, members)
	}
	for i := range got {
		if got[i] != members[i] {
			t.Fatalf("unpooled subset changed after pool reuse: %v vs %v", got, members)
		}
	}
	if sc.Pool().Stats().Outstanding() != 1 {
		t.Fatalf("outstanding = %d; the unpooled bitset should count as permanently out", sc.Pool().Stats().Outstanding())
	}
}

// TestScratchSteadyStateAllocs pins the tentpole property at the dataset
// layer: with a warm scratch, counting and partitioning allocate nothing.
func TestScratchSteadyStateAllocs(t *testing.T) {
	c := scratchTestCollection(t)
	sub := c.All()
	sc := NewScratch()
	// Warm up: size the count array, the EntityCount buffer and the pool.
	sub.InformativeEntitiesInto(sc)
	w, wo := sub.PartitionScratch(2, sc)
	w.Release()
	wo.Release()
	allocs := testing.AllocsPerRun(200, func() {
		_ = sub.InformativeEntitiesInto(sc)
		with, without := sub.PartitionScratch(2, sc)
		with.Release()
		without.Release()
	})
	if allocs != 0 {
		t.Fatalf("steady-state scratch use: %.1f allocs/op, want 0", allocs)
	}
}

// TestScratchSharedPool exercises the parallel-build arrangement: two
// scratches over one pool, with a subset produced by one scratch released
// while the other holds pool resources.
func TestScratchSharedPool(t *testing.T) {
	c := scratchTestCollection(t)
	pool := bitset.NewPool()
	sc1 := NewScratchWithPool(pool)
	sc2 := NewScratchWithPool(pool)
	w1, wo1 := c.All().PartitionScratch(0, sc1)
	w2, wo2 := c.All().PartitionScratch(1, sc2)
	w1.Release()
	wo1.Release()
	w2.Release()
	wo2.Release()
	if out := pool.Stats().Outstanding(); out != 0 {
		t.Fatalf("shared pool outstanding = %d", out)
	}
}

// TestSubsetRetainRelease pins the refcount discipline behind shared batch
// partitions: a retained subset survives all but its last Release, Retain on
// unpooled subsets is a harmless no-op, and an Unpool by one owner protects
// the escaped reference from every co-owner's pending Release.
func TestSubsetRetainRelease(t *testing.T) {
	c := scratchTestCollection(t)
	sc := NewScratch()

	// Three owners (creator + two retains): only the third Release recycles.
	with, without := c.All().PartitionScratch(0, sc)
	with.Retain()
	with.Retain()
	with.Release()
	with.Release()
	if out := sc.Pool().Stats().Outstanding(); out != 2 {
		t.Fatalf("outstanding after 2 of 3 releases = %d, want 2 (with still held, without held)", out)
	}
	wantMembers := append([]uint32(nil), with.Members()...)
	got := with.Members()
	for i := range got {
		if got[i] != wantMembers[i] {
			t.Fatalf("retained subset mutated before last release")
		}
	}
	with.Release()
	without.Release()
	if out := sc.Pool().Stats().Outstanding(); out != 0 {
		t.Fatalf("outstanding after all releases = %d, want 0", out)
	}

	// A freshly minted (recycled) subset must not inherit the old refcount.
	w2, wo2 := c.All().PartitionScratch(1, sc)
	w2.Release()
	wo2.Release()
	if out := sc.Pool().Stats().Outstanding(); out != 0 {
		t.Fatalf("recycled subset kept a stale refcount: outstanding = %d", out)
	}

	// Unpool with a co-owner outstanding: the co-owner's Release must not
	// return the escaped bitset to the pool.
	w3, wo3 := c.All().PartitionScratch(0, sc)
	w3.Retain()
	w3.Unpool()
	w3.Release() // co-owner lets go: must be a no-op now
	wo3.Release()
	if out := sc.Pool().Stats().Outstanding(); out != 1 {
		t.Fatalf("unpooled shared subset: outstanding = %d, want 1 (the escaped bitset)", out)
	}

	// Retain/Release on unpooled subsets are no-ops.
	plain := c.All()
	plain.Retain()
	plain.Release()
	plain.Release()
	if plain.Size() != c.Len() {
		t.Fatal("unpooled subset damaged by Retain/Release")
	}
}
