package strategy

import (
	"fmt"
	"testing"

	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/rng"
	"setdiscovery/internal/synth"
	"setdiscovery/internal/testutil"
)

// refSearch is Algorithm 1 the long way round, the reference for the
// selection kernel: no memo cache, the allocating entity count, and every
// node — one-step nodes included — sorts its whole candidate list by
// (lb1, uneven, entity), drops excluded entities at the root and truncates
// to the beam before taking the first candidate or looping. With ul = Inf at
// the root its bound is the exact k-step minimum and its entity the first
// candidate in sort order reaching it, which is what the cached, pooled
// kernel must return.
func refSearch(s *KLP, sub *dataset.Subset, k int, ul cost.Value, depth int, excluded map[dataset.Entity]bool) (dataset.Entity, cost.Value, bool) {
	n := sub.Size()
	cands := appendCandidates(nil, n, sub.InformativeEntities(), s.metric)
	sortByLB1(cands)
	if depth == 0 && len(excluded) > 0 {
		kept := cands[:0]
		for _, c := range cands {
			if !excluded[c.entity] {
				kept = append(kept, c)
			}
		}
		cands = kept
	}
	if len(cands) == 0 {
		return 0, ul, false
	}
	if q := s.effectiveQ(depth); q > 0 && len(cands) > q {
		cands = cands[:q]
	}
	if k <= 1 {
		if cands[0].lb1 >= ul {
			return 0, cands[0].lb1, false
		}
		return cands[0].entity, cands[0].lb1, true
	}
	var ent dataset.Entity
	found := false
	for _, c := range cands {
		if c.lb1 >= ul {
			break
		}
		with, without := sub.Partition(c.entity)
		var l1, l2 cost.Value
		if with.Size() > 1 {
			_, v, ok := refSearch(s, with, k-1, cost.ULFirst(s.metric, ul, n, without.Size()), depth+1, nil)
			if !ok {
				continue
			}
			l1 = v
		}
		if without.Size() > 1 {
			_, v, ok := refSearch(s, without, k-1, cost.ULSecond(s.metric, ul, n, l1), depth+1, nil)
			if !ok {
				continue
			}
			l2 = v
		}
		if l := cost.Combine(s.metric, with.Size(), l1, without.Size(), l2); l < ul {
			ul, ent, found = l, c.entity, true
		}
	}
	return ent, ul, found
}

// kernelSubs draws random sub-collections of c: uniform samples of 2–maxN
// sets, and the supersets of a random entity (the candidates of a seeded
// session), sampled down to maxN.
func kernelSubs(c *dataset.Collection, r *rng.RNG, count, maxN int) []*dataset.Subset {
	all := make([]uint32, c.Len())
	for i := range all {
		all[i] = uint32(i)
	}
	var subs []*dataset.Subset
	for len(subs) < count {
		pool := all
		if len(subs)%2 == 1 {
			pool = c.SupersetsOf([]dataset.Entity{dataset.Entity(r.Intn(c.NumEntities()))}).Members()
		}
		if len(pool) < 2 {
			continue
		}
		size := r.IntRange(2, min(maxN, len(pool)))
		subs = append(subs, c.SubsetOf(r.SampleUint32(pool, size)))
	}
	return subs
}

// TestKernelMatchesSortEverythingReference runs random sub-collections of
// the copy-add and paper collections through the production kernel (lent
// scratch, touched-entity counting, table-driven bounds, one-pass argmin at
// the horizon, shared cache) and through refSearch, for k ∈ {1,2,3}, both
// metrics, k-LP, k-LPLE and k-LPLVE, with and without exclusions.
func TestKernelMatchesSortEverythingReference(t *testing.T) {
	copyAdd, err := synth.Generate(synth.Params{N: 2000, SizeMin: 50, SizeMax: 60, Alpha: 0.9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	paper := testutil.PaperCollection()
	r := rng.New(29)
	collections := []struct {
		name string
		subs []*dataset.Subset
	}{
		{"copy-add", kernelSubs(copyAdd, r, 40, 60)},
		{"paper", append(kernelSubs(paper, r, 6, paper.Len()), paper.All())},
	}
	for _, m := range []cost.Metric{cost.AD, cost.H} {
		for k := 1; k <= 3; k++ {
			for _, f := range []*KLP{NewKLP(m, k), NewKLPLE(m, k, 3), NewKLPLVE(m, k, 3)} {
				t.Run(f.Name(), func(t *testing.T) {
					sel := f.New().(*KLP)
					for _, col := range collections {
						for i, sub := range col.subs {
							kernelCompare(t, fmt.Sprintf("%s sub %d", col.name, i), f, sel, sub, nil)
							infos := sub.InformativeEntities()
							if len(infos) < 2 {
								continue
							}
							// Exclude the unconstrained choice and one other
							// entity, so the root must look past its best.
							want, _, _ := refSearch(f, sub, k, cost.Inf, 0, nil)
							excl := map[dataset.Entity]bool{want: true, infos[r.Intn(len(infos))].Entity: true}
							kernelCompare(t, fmt.Sprintf("%s sub %d excluding", col.name, i), f, sel, sub, excl)
						}
					}
				})
			}
		}
	}
}

// kernelCompare checks one selection of sel against the reference: the
// entity and bound of LowerBound, or SelectExcluding's entity under excl.
func kernelCompare(t *testing.T, what string, f, sel *KLP, sub *dataset.Subset, excl map[dataset.Entity]bool) {
	t.Helper()
	we, wv, wok := refSearch(f, sub, f.k, cost.Inf, 0, excl)
	if excl != nil {
		ge, gok := sel.SelectExcluding(sub, excl)
		if ge != we || gok != wok {
			t.Fatalf("%s: SelectExcluding = (%d,%v), reference (%d,%v)", what, ge, gok, we, wok)
		}
		return
	}
	ge, gv, gok := sel.LowerBound(sub)
	if ge != we || gv != wv || gok != wok {
		t.Fatalf("%s: LowerBound = (%d,%d,%v), reference (%d,%d,%v)", what, ge, gv, gok, we, wv, wok)
	}
}
