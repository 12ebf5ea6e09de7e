package discovery

import (
	"errors"
	"fmt"

	"setdiscovery/internal/dataset"
	"setdiscovery/internal/strategy"
)

// scheduler is the code path every Session's deterministic step runs
// through: it decides how the next interaction is selected and how an
// answer's partition is computed. A solo Session owns a direct scheduler
// that just runs the strategy and the scratch partition, exactly as before.
// A Batch hands all of its member sessions one shared scheduler, which
// amortises the expensive half of the step across members parked at the
// same candidate-set state:
//
//   - selection: the strategy's pick (and the multiple-choice ranking) for
//     a candidate set is memoised by the set's 128-bit fingerprint, so N
//     members at the same state cost one strategy invocation per round.
//   - partitioning: the (with, without) split for (fingerprint, entity) is
//     computed once; every member taking a branch retains the shared half
//     instead of copying it, and the memo's own reference is released at
//     the end of the round (Batch.EndRound).
//
// Sharing is skipped for members with "don't know" exclusions: their
// selection depends on the per-member excluded set, not just the candidate
// fingerprint, so they fall back to the direct path (partitions still
// share). Memoised selections are pure functions of the candidate set and
// the batch-wide options, so a shared result is byte-identical to what the
// member would have computed alone — the equivalence tests pin this.
type scheduler struct {
	shared  bool
	scratch *dataset.Scratch // batch-wide arena; nil when the batch runs unpooled

	sel   map[dataset.Fingerprint]selEntry
	parts map[partKey]partEntry
	stats BatchStats
}

type selEntry struct {
	entities []dataset.Entity
	ok       bool
}

type partKey struct {
	fp dataset.Fingerprint
	e  dataset.Entity
}

type partEntry struct {
	with, without *dataset.Subset
}

// soloScheduler is the stateless direct-path scheduler shared by every
// non-batched Session.
var soloScheduler = &scheduler{}

// selectInteraction picks the entities of a session's next interaction —
// through the round memo on a batch scheduler when the member has no
// exclusions, directly otherwise. (The solo scheduler is a shared stateless
// value: it must stay read-only, so only batch schedulers count stats.)
func (d *scheduler) selectInteraction(s *Session) ([]dataset.Entity, bool) {
	if !d.shared {
		return selectBatch(s.cs, s.opts, s.excluded, s.res, s.scratch)
	}
	if len(s.excluded) > 0 {
		// Per-member exclusions make the result unshareable, but it is
		// still a selection computation — count it.
		d.stats.Selections++
		return selectBatch(s.cs, s.opts, s.excluded, s.res, s.scratch)
	}
	fp := s.cs.Fingerprint()
	if se, ok := d.sel[fp]; ok {
		d.stats.SelectionsShared++
		return se.entities, se.ok
	}
	entities, ok := selectBatch(s.cs, s.opts, s.excluded, s.res, s.scratch)
	d.sel[fp] = selEntry{entities, ok}
	d.stats.Selections++
	return entities, ok
}

// apply narrows a session's candidate set by one answered question. On the
// shared path the partition for (candidate fingerprint, entity) is computed
// once per round and the member retains the half its answer selects; the
// other half stays parked in the memo for siblings (or is recycled at
// EndRound if nobody needs it).
func (d *scheduler) apply(s *Session, cs *dataset.Subset, e dataset.Entity, a Answer) *dataset.Subset {
	if !d.shared {
		return applyScratch(cs, e, a, s.scratch)
	}
	k := partKey{cs.Fingerprint(), e}
	pe, ok := d.parts[k]
	if !ok {
		if d.scratch != nil {
			// lint:owns — both halves live in d.parts until EndRound releases them.
			pe.with, pe.without = cs.PartitionScratch(e, d.scratch)
		} else {
			pe.with, pe.without = cs.Partition(e)
		}
		d.parts[k] = pe
		d.stats.Partitions++
	} else {
		d.stats.PartitionsShared++
	}
	half := pe.with
	if a != Yes {
		half = pe.without
	}
	half.Retain()
	return half
}

// endRound drops the per-round memos. The partition memo owns one reference
// to each half it parked; releasing it recycles every half no member
// retained, while retained halves live on as member candidate sets until
// their own Release. Selection results would stay valid forever (they are
// pure functions of the candidate set), but states narrow every round, so
// keeping them would only grow memory.
func (d *scheduler) endRound() {
	if !d.shared {
		return
	}
	for k, pe := range d.parts {
		pe.with.Release()
		pe.without.Release()
		delete(d.parts, k)
	}
	clear(d.sel)
	d.stats.Rounds++
}

// BatchStats counts the scheduler's amortisation: how many selection and
// partition computations actually ran versus how many were served to
// members from the round memos. For N members parked at identical states,
// Selections stays at a solo session's count while SelectionsShared absorbs
// the other N−1 per round.
type BatchStats struct {
	// Selections counts strategy selections computed, including the
	// unshareable per-member exclusion-path ones ("don't know" members).
	Selections       int64
	SelectionsShared int64 // selections served from the round memo
	Partitions       int64 // candidate-set partitions computed
	PartitionsShared int64 // partitions served from the round memo
	Rounds           int64 // completed EndRound calls
}

// Batch schedules N suspended discovery sessions over one collection so
// that members parked at the same candidate-set state share one selection
// and one partition computation per round (the ROADMAP "Batch discovery
// API"). All members run under the same Options and one strategy instance
// minted from the factory — when the factory supports ScratchFactory, that
// instance, every member session and the shared partition memo draw from a
// single batch-wide arena.
//
// A Batch, its scheduler and its member sessions form one single-user
// object: all calls (including calls on sessions obtained via Member) must
// be externally serialised. The intended driving protocol is round-based:
//
//	for !b.Done() {
//	    for i := 0; i < b.Len(); i++ {
//	        if m := b.Member(i); !m.Done() {
//	            e, _ := m.Next()
//	            m.Answer(answerFor(i, e))
//	        }
//	    }
//	    b.EndRound()
//	}
//
// Members may be answered in any order and across any number of rounds —
// sharing degrades gracefully to a solo session's cost, never below it, and
// correctness does not depend on members staying in lockstep.
type Batch struct {
	members []*Session
	sched   *scheduler
}

// NewBatch starts one session per seed (a seed is the member's initial
// example set), all sharing one scheduler. opts.Strategy must be nil: the
// batch mints the single shared instance from f itself. A seed contained in
// no candidate yields a member that is immediately done with
// ErrNoCandidates from its Result, mirroring NewSession.
func NewBatch(c *dataset.Collection, seeds [][]dataset.Entity, f strategy.Factory, opts Options) (*Batch, error) {
	if f == nil && opts.Group == nil {
		return nil, errors.New("discovery: NewBatch requires a strategy factory")
	}
	if opts.Strategy != nil {
		return nil, errors.New("discovery: Options.Strategy must be nil for NewBatch; the batch mints one shared instance from the factory")
	}
	if len(seeds) == 0 {
		return nil, errors.New("discovery: NewBatch requires at least one seed")
	}
	sched := &scheduler{
		shared: true,
		sel:    make(map[dataset.Fingerprint]selEntry),
		parts:  make(map[partKey]partEntry),
	}
	if !opts.noScratch {
		sched.scratch = dataset.NewScratch()
	}
	// Group batches run each member's subset selection directly (the memos
	// are entity-keyed); members still share the batch-wide arena.
	if opts.Group == nil {
		if sf, ok := f.(strategy.ScratchFactory); ok && sched.scratch != nil {
			opts.Strategy = sf.NewWithScratch(sched.scratch)
		} else {
			opts.Strategy = f.New()
		}
	}
	b := &Batch{sched: sched, members: make([]*Session, 0, len(seeds))}
	for i, initial := range seeds {
		// Members share the scheduler from their very first selection, so a
		// batch of identical seeds already amortises its opening question.
		s, err := newScheduledSession(c, initial, opts, sched)
		if err != nil {
			return nil, fmt.Errorf("discovery: batch member %d: %w", i, err)
		}
		b.members = append(b.members, s)
	}
	return b, nil
}

// Len returns the number of member sessions.
func (b *Batch) Len() int { return len(b.members) }

// Member returns the i-th member session. The session is live — callers may
// drive it with Next/PendingConfirm/Answer/Result — but it remains part of
// the batch's single-user scope and must not be used concurrently with the
// batch or its siblings.
func (b *Batch) Member(i int) *Session { return b.members[i] }

// Answer applies a member's reply, advancing that member through the shared
// scheduler. Equivalent to b.Member(i).Answer(a).
func (b *Batch) Answer(i int, a Answer) error { return b.members[i].Answer(a) }

// EndRound releases the selection and partition results shared during the
// answers since the last EndRound. Call it once per round of answers; a
// missing call costs memory (the memos keep growing), never correctness.
func (b *Batch) EndRound() { b.sched.endRound() }

// Done reports whether every member session has finished.
func (b *Batch) Done() bool {
	for _, s := range b.members {
		if !s.Done() {
			return false
		}
	}
	return true
}

// Stats returns the scheduler's amortisation counters.
func (b *Batch) Stats() BatchStats { return b.sched.stats }

// Scratch exposes the batch-wide arena for leak accounting in tests and
// benchmarks; nil when the batch runs unpooled.
func (b *Batch) Scratch() *dataset.Scratch { return b.sched.scratch }
