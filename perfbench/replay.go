package main

import (
	"fmt"
	"time"

	"setdiscovery"
)

// replayStats is the session layer measured directly: the same inputs as
// the timed slice, through the setdiscovery facade, in one goroutine.
type replayStats struct {
	create, answer []time.Duration
	selection      time.Duration // Σ Result.SelectionTime
	total          time.Duration // Σ time inside facade calls
	members        int64
	questions      int64 // Σ membership questions over members
	computed       int64 // strategy selections computed (memo or batch scheduler)
	shared         int64 // batch selections served from the scheduler's round memo
}

// replay runs the first n units of the index space salt, taking the
// workers' units in turn, each on its worker's own fresh Collection warmed
// like the fleet's. It stops early when budget runs out. Spans go to tr
// under the session layer.
func replay(w workload, d *data, seed uint64, salt, n int, budget time.Duration, tr *tracer) (*replayStats, error) {
	colls := make([]*setdiscovery.Collection, workers)
	for i := range colls {
		c, err := setdiscovery.NewCollection(d.sets)
		if err != nil {
			return nil, err
		}
		for j := 0; j < w.warmup; j++ {
			if err := replayUnit(c, w, d, d.spec(w, seed, warmupSalt, i, j), "", &replayStats{}, nil); err != nil {
				return nil, fmt.Errorf("replay warm-up: %w", err)
			}
		}
		colls[i] = c
	}
	computed := func() (n int64) {
		for _, c := range colls {
			n += c.SelectionCacheStats().Computed
		}
		return n
	}
	before := computed()
	st := &replayStats{}
	stop := time.Now().Add(budget)
	for k := 0; k < n && time.Now().Before(stop); k++ {
		i, j := k%workers, k/workers
		if err := replayUnit(colls[i], w, d, d.spec(w, seed, salt, i, j), fmt.Sprintf("replay-%d-%d", i, j), st, tr); err != nil {
			return nil, err
		}
	}
	st.computed += computed() - before
	return st, nil
}

// replayUnit runs one solo session or batch to completion and checks its
// discoveries. A create is the constructor plus the first questions; a
// round is one Answer plus the next questions.
func replayUnit(c *setdiscovery.Collection, w workload, d *data, sp spec, res string, st *replayStats, tr *tracer) error {
	var initial []string
	if sp.initial != "" {
		initial = []string{sp.initial}
	}
	timed := func(op string, samples *[]time.Duration, f func() error) error {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		*samples = append(*samples, t1.Sub(t0))
		st.total += t1.Sub(t0)
		if tr != nil {
			tr.record(layerSession, op, res, t0, t1)
		}
		return err
	}
	var results []*setdiscovery.Result
	if w.batch == 0 {
		var s *setdiscovery.Session
		var q setdiscovery.Question
		var done bool
		if err := timed("create", &st.create, func() (err error) {
			if s, err = c.NewSession(initial); err == nil {
				q, done = s.Next()
			}
			return err
		}); err != nil {
			return err
		}
		for !done {
			a := answerOf(d.answer(sp.targets[0], q.Entity, q.Confirm))
			if err := timed("answer", &st.answer, func() error {
				err := s.Answer(a)
				q, done = s.Next()
				return err
			}); err != nil {
				return err
			}
		}
		r, err := s.Result()
		if err != nil {
			return err
		}
		results = append(results, r)
	} else {
		seeds := make([]setdiscovery.Seed, len(sp.targets))
		for i := range seeds {
			seeds[i] = setdiscovery.Seed{Initial: initial}
		}
		var b *setdiscovery.Batch
		qs := make([]setdiscovery.Question, len(seeds))
		pending := func() []setdiscovery.MemberAnswer {
			var as []setdiscovery.MemberAnswer
			for i := range qs {
				q, done := b.Question(i)
				if !done {
					qs[i] = q
					as = append(as, setdiscovery.MemberAnswer{Member: i})
				}
			}
			return as
		}
		var as []setdiscovery.MemberAnswer
		if err := timed("create", &st.create, func() (err error) {
			if b, err = c.NewBatch(seeds); err == nil {
				as = pending()
			}
			return err
		}); err != nil {
			return err
		}
		for len(as) > 0 {
			for k, a := range as {
				q := qs[a.Member]
				as[k].Answer = answerOf(d.answer(sp.targets[a.Member], q.Entity, q.Confirm))
			}
			if err := timed("answer", &st.answer, func() error {
				err := b.Answer(as...)
				as = pending()
				return err
			}); err != nil {
				return err
			}
		}
		for i := range seeds {
			r, err := b.Result(i)
			if err != nil {
				return err
			}
			results = append(results, r)
		}
		bs := b.Stats()
		st.computed += bs.Selections
		st.shared += bs.SelectionsShared
	}
	for i, r := range results {
		if want := d.names[sp.targets[i]]; r.Target != want {
			return fmt.Errorf("replay member %d discovered %q, want %q", i, r.Target, want)
		}
		st.selection += r.SelectionTime
		st.members++
		st.questions += int64(r.Questions)
	}
	return nil
}

func answerOf(s string) setdiscovery.Answer {
	if s == "yes" {
		return setdiscovery.Yes
	}
	return setdiscovery.No
}
