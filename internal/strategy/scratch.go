package strategy

import (
	"runtime"
	"sync"

	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
)

// workerScratch bundles the reusable state behind the allocation-free hot
// path: the dataset scratch (count arrays, EntityCount buffer, bitset pool)
// and a depth-indexed stack of candidate buffers so the lookahead recursion
// levels never stomp each other's candidate lists.
//
// A workerScratch with a nil sc falls back to the allocating counting and
// partitioning paths — that is the behaviour of strategy values used
// directly rather than minted through Factory.New, and of the
// DisableScratch ablation.
type workerScratch struct {
	sc        *dataset.Scratch
	candStack [][]candidate
}

// informative lists sub's informative entities in ascending ID order,
// counted through the scratch when one is live. A scratch-backed result
// aliases the scratch and is valid until its next count.
func (w *workerScratch) informative(sub *dataset.Subset) []dataset.EntityCount {
	if w.sc != nil {
		return sub.InformativeEntitiesInto(w.sc)
	}
	return sub.InformativeEntities()
}

// candidatesAt fills the depth-th candidate buffer with sub's informative
// entities under metric m. The returned slice is owned by the caller until
// the next candidatesAt call at the same depth; deeper recursion uses
// deeper buffers and never touches it.
func (w *workerScratch) candidatesAt(depth int, sub *dataset.Subset, m cost.Metric) []candidate {
	for len(w.candStack) <= depth {
		w.candStack = append(w.candStack, nil)
	}
	cands := appendCandidates(w.candStack[depth], sub.Size(), w.informative(sub), m)
	w.candStack[depth] = cands
	return cands
}

// partition splits sub by e, through the pool when scratch state is live.
// Pooled results must be handed back with Release (a no-op on the
// allocating fallback, so callers release unconditionally).
func (w *workerScratch) partition(sub *dataset.Subset, e dataset.Entity) (with, without *dataset.Subset) {
	if w.sc != nil {
		return sub.PartitionScratch(e, w.sc)
	}
	return sub.Partition(e)
}

// scratchLender keeps a factory's idle scratches for its siblings to
// borrow. It is a plain free list rather than a sync.Pool so a returned
// scratch is reused deterministically: a sync.Pool may drop any item (the
// race detector's build drops a quarter of all Puts on purpose), which
// would turn steady-state selection back into allocating a fresh
// universe-sized scratch now and then.
type scratchLender struct {
	mu      sync.Mutex
	idle    []*workerScratch
	maxIdle int
}

// newScratchLender returns an empty lender. It keeps up to four idle
// scratches per processor: selections are CPU-bound, so about one call per
// processor holds a scratch at any moment; scratches returned beyond that
// after a burst go to the garbage collector.
func newScratchLender() *scratchLender {
	return &scratchLender{maxIdle: 4 * runtime.GOMAXPROCS(0)}
}

// get lends an idle scratch, or a new one when none is idle.
func (l *scratchLender) get() *workerScratch {
	l.mu.Lock()
	if n := len(l.idle); n > 0 {
		w := l.idle[n-1]
		l.idle[n-1] = nil
		l.idle = l.idle[:n-1]
		l.mu.Unlock()
		return w
	}
	l.mu.Unlock()
	return &workerScratch{sc: dataset.NewScratch()}
}

// put takes a scratch back once its borrower is done with it.
func (l *scratchLender) put(w *workerScratch) {
	l.mu.Lock()
	if len(l.idle) < l.maxIdle {
		l.idle = append(l.idle, w)
	}
	l.mu.Unlock()
}

// lentScratch is how a lookahead strategy instance comes by its
// workerScratch. A factory keeps a lender of scratches; a sibling minted by
// New borrows one for the length of a single top-level call and hands it
// back afterwards, so an idle sibling — say, one held by a finished
// discovery session until its store expires it — pins no working memory,
// and concurrent siblings never hold the same scratch at once. A sibling
// minted by NewWithScratch over a caller's arena keeps that arena for life,
// and the factory value itself and the DisableScratch ablation run the
// allocating fallback over a private workerScratch.
type lentScratch struct {
	lender *scratchLender // the factory's, shared by its siblings; nil when disabled
	lent   bool           // minted by New: borrow from lender per call
	w      *workerScratch // the working memory in use; nil on an idle lent sibling
}

// newLentScratch returns a factory's scratch state: a fresh lender, and the
// allocating fallback for calls on the factory value itself.
func newLentScratch() lentScratch {
	return lentScratch{
		lender: newScratchLender(),
		w:      &workerScratch{},
	}
}

// disabledScratch returns the scratch state of the DisableScratch ablation.
func disabledScratch() lentScratch { return lentScratch{w: &workerScratch{}} }

// mint returns the scratch state of a sibling: lent per call when sc is nil,
// the caller's arena for life otherwise, and the allocating fallback when
// the factory's scratch is disabled.
func (l lentScratch) mint(sc *dataset.Scratch) lentScratch {
	switch {
	case l.lender == nil:
		return disabledScratch()
	case sc == nil:
		return lentScratch{lender: l.lender, lent: true}
	default:
		return lentScratch{lender: l.lender, w: &workerScratch{sc: sc}}
	}
}

// hold returns the instance's working memory, borrowing a scratch from the
// lender first when a lent sibling has none in hand. A call that never
// needs working memory — a lookahead-cache hit — never borrows.
func (l *lentScratch) hold() *workerScratch {
	if l.w == nil {
		l.w = l.lender.get()
	}
	return l.w
}

// giveBack returns a borrowed scratch to the lender at the end of a
// top-level call, once the call's pooled subsets have all been released; a
// no-op when nothing was borrowed or the scratch is not lent.
func (l *lentScratch) giveBack() {
	if l.lent && l.w != nil {
		l.lender.put(l.w)
		l.w = nil
	}
}
