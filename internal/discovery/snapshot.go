package discovery

import (
	"errors"
	"fmt"
	"math"
	"time"

	"setdiscovery/internal/codec"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/grouptest"
	"setdiscovery/internal/strategy"
	"setdiscovery/internal/tree"
)

// Portable session state: a compact versioned binary encoding of the
// Session/TreeSession/Batch state machines, so a suspended discovery can
// cross process boundaries — persisted by a serving layer, exported over
// HTTP, migrated between engines by a router — and resume byte-identically:
// the restored session asks the same remaining questions, keeps the same
// counters and produces the same Result as the never-suspended original
// (test-pinned).
//
// The encoding covers exactly the resumable state: the candidate set (member
// indexes plus its 128-bit fingerprint as an integrity guard), the asked and
// excluded ("don't know") entity sets, the backtracking trail with each
// entry's pre-partition candidate set, the in-flight multiple-choice batch,
// and the Result counters. What it deliberately does not cover: the
// collection (the caller supplies it and is guarded by the public layer's
// collection fingerprint), the strategy (reconstructed from options —
// selections are pure functions of the candidate set, so a fresh instance
// picks identical questions), and the memo caches (performance state, not
// behaviour).
//
// Decoders treat input as untrusted: every count is bounded by the remaining
// input, every set index and entity is range-checked, and the decoded
// candidate set must reproduce its recorded fingerprint. Malformed input
// yields an error, never a panic (fuzz-enforced alongside the wire
// decoders).

// stateVersion is the version byte leading every encoded state. Bump it
// when the layout changes; decoders reject versions they do not know.
//
// Version 2 carries the set-valued question kind of group sessions
// (Options.Group): a pending-subset section, and per-question kind bytes in
// the trail and asked log. Sessions without a group strategy keep emitting
// version 1 byte-identically; a version-2 state requires group options to
// decode (and vice versa), so the two layouts can never be confused.
const (
	stateVersion      = 1
	stateVersionGroup = 2
)

// errCorruptState is wrapped by every decoder failure.
var errCorruptState = errors.New("discovery: corrupt session state")

// terminal error codes of a done session.
const (
	errCodeNone          = 0
	errCodeNoCandidates  = 1
	errCodeContradiction = 2
	errCodeBacktrackLim  = 3
)

// writeEntities writes an entity list verbatim (order is meaningful: the
// in-flight interaction batch is strategy-ranked, not sorted).
func writeEntities(w *codec.Writer, list []dataset.Entity) {
	w.Uvarint(uint64(len(list)))
	for _, e := range list {
		w.Uvarint(uint64(e))
	}
}

// writeSubset writes a subset's strictly increasing set-index list as first
// value plus gaps, the canonical subset encoding.
func writeSubset(w *codec.Writer, s *dataset.Subset) {
	list := s.Members()
	w.Uvarint(uint64(len(list)))
	prev := uint32(0)
	for _, v := range list {
		w.Uvarint(uint64(v - prev)) // ≥ 1 after the first: the list is strictly increasing
		prev = v
	}
}

func writeFingerprint(w *codec.Writer, fp dataset.Fingerprint) {
	w.BE64(fp.Hi)
	w.BE64(fp.Lo)
}

// writeQuestion writes one asked-question key: in a version-1 state a bare
// entity, in a version-2 (group) state a kind byte followed by an entity
// (kind 0) or semantics plus a non-empty subset (kind 1).
func writeQuestion(w *codec.Writer, group bool, e dataset.Entity, subset []dataset.Entity, sem grouptest.Semantics) {
	switch {
	case !group:
		w.Uvarint(uint64(e))
	case subset != nil:
		w.U8(1)
		w.U8(byte(sem))
		writeEntities(w, subset)
	default:
		w.U8(0)
		w.Uvarint(uint64(e))
	}
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCorruptState, fmt.Sprintf(format, args...))
}

// readByte reads a one-byte enumeration, failing above max.
func readByte(r *codec.Reader, max byte, what string) byte {
	b := r.U8()
	if b > max {
		r.Fail("bad %s %d", what, b)
	}
	return b
}

// readEntity reads one entity ID (bounded to uint32, the engine-wide entity
// width).
func readEntity(r *codec.Reader) dataset.Entity {
	return dataset.Entity(r.Uint(math.MaxUint32))
}

// readEntities reads an entity list: the in-flight batch, the excluded set
// or a question's subset. Each names distinct entities of c, so none is
// longer than c's entity universe.
func readEntities(r *codec.Reader, c *dataset.Collection) []dataset.Entity {
	return codec.List(r, 1, c.NumEntities(), func() dataset.Entity { return readEntity(r) })
}

// questionLogBounds caps the trail and the asked log of a state decoded
// over c under opts. Along one path of answers an entity session asks each
// entity at most once (an answered entity is uninformative for the narrowed
// candidates, an unknown one is excluded), and a group session's answers
// each narrow the candidates or exclude a new entity, so a path holds at
// most NumEntities+Len questions. The trail is one path; the asked log also
// keeps the questions of the paths that backtracking abandoned, at most
// MaxBacktracks of them.
func questionLogBounds(c *dataset.Collection, opts Options) (trail, asked int) {
	perPath := min(c.NumEntities()+c.Len(), math.MaxInt32)
	paths := 1
	if opts.Backtrack {
		paths += min(opts.MaxBacktracks, math.MaxInt32)
	}
	if perPath > 0 && paths > math.MaxInt32/perPath {
		return perPath, math.MaxInt32
	}
	return perPath, perPath * paths
}

// readSubset reads a member-index list and rebinds it to c, rejecting
// indexes beyond the collection and non-canonical (unsorted or duplicated)
// lists. It returns nil after a failure.
func readSubset(r *codec.Reader, c *dataset.Collection) *dataset.Subset {
	n, prev := 0, uint64(0)
	members := codec.List(r, 1, c.Len(), func() uint32 {
		gap := r.Uvarint()
		if n > 0 && gap == 0 {
			r.Fail("subset members not strictly increasing")
		}
		if gap >= uint64(c.Len())-prev {
			r.Fail("subset references a set beyond the collection's %d", c.Len())
		}
		n, prev = n+1, prev+gap
		return uint32(prev)
	})
	if r.Err() != nil {
		return nil
	}
	return c.SubsetOf(members)
}

func readFingerprint(r *codec.Reader) dataset.Fingerprint {
	return dataset.Fingerprint{Hi: r.BE64(), Lo: r.BE64()}
}

// readQuestion reads one asked-question key (see writeQuestion).
func readQuestion(r *codec.Reader, c *dataset.Collection, group bool) (dataset.Entity, []dataset.Entity, grouptest.Semantics) {
	if !group {
		return readEntity(r), nil, 0
	}
	switch kind := r.U8(); kind {
	case 0:
		return readEntity(r), nil, 0
	case 1:
		sem := grouptest.Semantics(readByte(r, byte(grouptest.SubsetOfTarget), "subset semantics"))
		members := readEntities(r, c)
		if len(members) == 0 {
			r.Fail("empty question subset")
		}
		return 0, members, sem
	default:
		r.Fail("bad question kind %d", kind)
		return 0, nil, 0
	}
}

// EncodeState serializes the session's resumable state. It is
// non-destructive: the session continues unaffected, so a serving layer can
// export state on every round-trip. Restore with DecodeSession (or
// NewBatch's decoding counterpart for batch members).
func (s *Session) EncodeState() []byte {
	w := codec.Writer{Buf: make([]byte, 0, 256)}
	if s.opts.Group != nil {
		w.U8(stateVersionGroup)
	} else {
		w.U8(stateVersion)
	}
	s.encodeInto(&w)
	return w.Buf
}

func (s *Session) encodeInto(w *codec.Writer) {
	group := s.opts.Group != nil
	w.U8(byte(s.state))
	var flags byte
	if s.inBatch {
		flags |= 1
	}
	if s.contradiction {
		flags |= 2
	}
	if s.cs != nil {
		flags |= 4
	}
	if group && s.pendingSub != nil {
		flags |= 8
	}
	w.U8(flags)
	w.Uvarint(uint64(s.pending))
	if flags&8 != 0 {
		w.U8(byte(s.pendingSem))
		writeEntities(w, s.pendingSub)
	}
	if s.confirm != nil {
		w.Uvarint(uint64(s.confirm.Index) + 1)
	} else {
		w.Uvarint(0)
	}
	writeEntities(w, s.batch)
	writeEntities(w, sortedEntities(s.excluded))
	if s.cs != nil {
		writeSubset(w, s.cs)
		writeFingerprint(w, s.cs.Fingerprint())
	}
	w.Uvarint(uint64(len(s.trail)))
	for _, te := range s.trail {
		writeSubset(w, te.before)
		writeQuestion(w, group, te.entity, te.subset, te.sem)
		w.U8(byte(te.answer))
		w.Bool(te.flipped)
	}
	for _, v := range []int{s.res.Questions, s.res.Interactions, s.res.Unknowns, s.res.Backtracks} {
		w.Uvarint(uint64(v))
	}
	w.Uvarint(uint64(s.res.SelectionTime))
	w.Uvarint(uint64(len(s.res.Asked)))
	for _, q := range s.res.Asked {
		writeQuestion(w, group, q.Entity, q.Subset, q.Semantics)
		w.U8(byte(q.Answer))
	}
	if s.state == stateDone {
		code := errCodeNone
		switch {
		case s.err == nil:
		case errors.Is(s.err, ErrNoCandidates):
			code = errCodeNoCandidates
		case errors.Is(s.err, ErrContradiction):
			// The bare sentinel is plain contradiction; anything wrapping it
			// is the backtrack-limit variant (the only wrapper finish ever
			// produces — backtrack() wraps with the limit message).
			code = errCodeContradiction
			if s.err != ErrContradiction {
				code = errCodeBacktrackLim
			}
		default:
			// No other terminal error exists today; classify an unknown one
			// as contradiction rather than inventing a limit message.
			code = errCodeContradiction
		}
		w.U8(byte(code))
	}
}

// sortedEntities returns the keys of an excluded-entity map in increasing
// order, the canonical encoding of an order-free set.
func sortedEntities(m map[dataset.Entity]bool) []dataset.Entity {
	if len(m) == 0 {
		return nil
	}
	out := make([]dataset.Entity, 0, len(m))
	for e := range m {
		out = append(out, e)
	}
	for i := 1; i < len(out); i++ { // insertion sort: excluded sets are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// DecodeSession reconstructs a Session from EncodeState output, bound to c
// and resuming under opts (which must carry a Strategy instance, exactly as
// NewSession). The caller is responsible for supplying the same collection
// and behaviour-relevant options the state was captured under; the candidate
// set's recorded fingerprint guards against a mismatched collection.
func DecodeSession(c *dataset.Collection, opts Options, data []byte) (*Session, error) {
	r := codec.NewReader(data, errCorruptState)
	v := readVersion(&r, stateVersionGroup)
	s, err := decodeSessionInto(c, opts, soloScheduler, &r, v)
	if err != nil {
		return nil, err
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return s, nil
}

// readVersion reads the leading version byte, failing unless it is
// stateVersion or, when accepted, stateVersionGroup.
func readVersion(r *codec.Reader, accept byte) byte {
	v := r.U8()
	if v != stateVersion && v != accept {
		r.Fail("unknown state version %d", v)
	}
	return v
}

// decodeSessionInto decodes one session's state from r. It mirrors
// newScheduledSession's construction (options normalisation, scratch
// wiring) but restores the suspended fields instead of running the opening
// selection.
func decodeSessionInto(c *dataset.Collection, opts Options, sched *scheduler, r *codec.Reader, version byte) (*Session, error) {
	if err := r.Err(); err != nil {
		return nil, err
	}
	group := version == stateVersionGroup
	if group && opts.Group == nil {
		return nil, corrupt("group state requires group options")
	}
	if !group && opts.Group != nil {
		return nil, corrupt("group options with a non-group state")
	}
	if opts.Strategy == nil && opts.Group == nil {
		return nil, errors.New("discovery: Options.Strategy is required")
	}
	if opts.Backtrack && opts.MaxBacktracks == 0 {
		opts.MaxBacktracks = 64
	}
	stateByte := readByte(r, byte(stateDone), "session state")
	validFlags := byte(7)
	if group {
		validFlags = 15
	}
	flags := r.U8()
	if flags&^validFlags != 0 {
		r.Fail("bad flags %#x", flags)
	}
	pending := readEntity(r)
	var pendingSub []dataset.Entity
	var pendingSem grouptest.Semantics
	if flags&8 != 0 {
		if stateByte != byte(stateAsk) {
			r.Fail("pending subset outside the asking state")
		}
		pendingSem = grouptest.Semantics(readByte(r, byte(grouptest.SubsetOfTarget), "subset semantics"))
		if pendingSub = readEntities(r, c); len(pendingSub) == 0 {
			r.Fail("empty pending subset")
		}
	} else if group && stateByte == byte(stateAsk) {
		r.Fail("group session asking without a pending subset")
	}
	confirmIdx := r.Uint(uint64(c.Len()))
	batch := readEntities(r, c)
	excludedList := readEntities(r, c)
	var cs *dataset.Subset
	if flags&4 != 0 {
		cs = readSubset(r, c)
		if fp := readFingerprint(r); cs != nil && cs.Fingerprint() != fp {
			r.Fail("candidate-set fingerprint mismatch (state from a different collection?)")
		}
	}
	maxTrail, maxAsked := questionLogBounds(c, opts)
	trail := codec.List(r, 4, maxTrail, func() trailEntry { // subset, question, answer, flipped
		te := trailEntry{before: readSubset(r, c)}
		te.entity, te.subset, te.sem = readQuestion(r, c, group)
		te.answer = Answer(readByte(r, 2, "answer"))
		te.flipped = r.Bool()
		return te
	})
	res := &Result{}
	for _, dst := range []*int{&res.Questions, &res.Interactions, &res.Unknowns, &res.Backtracks} {
		*dst = int(r.Uint(math.MaxInt32))
	}
	res.SelectionTime = time.Duration(r.Uint(math.MaxInt64))
	res.Asked = codec.List(r, 2, maxAsked, func() Question { // question, answer
		var q Question
		q.Entity, q.Subset, q.Semantics = readQuestion(r, c, group)
		q.Answer = Answer(readByte(r, 2, "answer"))
		return q
	})
	if err := r.Err(); err != nil {
		return nil, err
	}

	excluded := make(map[dataset.Entity]bool, len(excludedList))
	for _, e := range excludedList {
		excluded[e] = true
	}
	s := &Session{
		c:             c,
		opts:          opts,
		res:           res,
		cs:            cs,
		excluded:      excluded,
		trail:         trail,
		sched:         sched,
		batch:         batch,
		inBatch:       flags&1 != 0,
		contradiction: flags&2 != 0,
		state:         sessionState(stateByte),
		pending:       pending,
		pendingSub:    pendingSub,
		pendingSem:    pendingSem,
	}
	if !opts.noScratch {
		if sched.shared {
			s.scratch = sched.scratch
		} else {
			s.scratch = dataset.NewScratch()
		}
	}
	if confirmIdx > 0 {
		s.confirm = c.Set(int(confirmIdx - 1))
	}

	switch s.state {
	case stateDone:
		code := r.U8()
		if err := r.Err(); err != nil {
			return nil, err
		}
		// finish() already ran before the snapshot: reconstruct its
		// outcome. The trail is always empty here (finish releases it).
		switch code {
		case errCodeNone, errCodeNoCandidates:
			if cs == nil {
				return nil, corrupt("done state without candidates")
			}
			if code == errCodeNoCandidates {
				s.err = ErrNoCandidates
			}
			res.Candidates = cs
			if code == errCodeNone && cs.Size() == 1 {
				res.Target = cs.Single()
			}
		case errCodeContradiction:
			s.err = ErrContradiction
			res.Candidates = c.SubsetOf(nil)
		case errCodeBacktrackLim:
			s.err = fmt.Errorf("%w (backtrack limit %d reached)",
				ErrContradiction, s.opts.MaxBacktracks)
			res.Candidates = c.SubsetOf(nil)
		default:
			return nil, corrupt("bad terminal error code %d", code)
		}
	case stateAsk, stateConfirm:
		if cs == nil {
			return nil, corrupt("live state without candidates")
		}
		if s.state == stateConfirm && s.confirm == nil {
			return nil, corrupt("confirming state without a confirm set")
		}
		res.Candidates = cs
	}
	return s, nil
}

// EncodeState serializes the tree walk's resumable state: the asked log (the
// path taken, which the decoder replays and verifies against the tree) plus
// the accounting the replay cannot reproduce.
func (s *TreeSession) EncodeState() []byte {
	w := codec.Writer{Buf: make([]byte, 0, 64)}
	w.U8(stateVersion)
	w.Bool(s.done)
	w.Uvarint(uint64(s.res.SelectionTime))
	w.Uvarint(uint64(len(s.res.Asked)))
	for _, q := range s.res.Asked {
		w.Uvarint(uint64(q.Entity))
		w.U8(byte(q.Answer))
	}
	return w.Buf
}

// DecodeTreeSession reconstructs a TreeSession over t by replaying the
// state's asked log from the root. Every replayed question is checked
// against the node it lands on, so state captured over a different tree (or
// corrupted) is rejected rather than silently walking to a wrong leaf.
func DecodeTreeSession(c *dataset.Collection, t *tree.Tree, data []byte) (*TreeSession, error) {
	r := codec.NewReader(data, errCorruptState)
	readVersion(&r, stateVersion)
	done := r.Bool()
	selNS := r.Uint(math.MaxInt64)
	s := NewTreeSession(c, t)
	for n := r.Count(2); n > 0 && r.Err() == nil; n-- { // entity, answer
		e, a := readEntity(&r), Answer(readByte(&r, 2, "answer"))
		switch {
		case r.Err() != nil:
		case s.done:
			r.Fail("asked log longer than the tree path")
		case s.n.Entity != e:
			r.Fail("asked entity %d does not match the tree (state from a different tree?)", e)
		default:
			if err := s.Answer(a); err != nil {
				return nil, err
			}
		}
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	if s.done != done {
		return nil, corrupt("done flag inconsistent with replayed walk")
	}
	// The replay reproduces every counter; only the recorded selection time
	// (and not the replay's own branch-following cost) is authoritative.
	s.res.SelectionTime = time.Duration(selNS)
	return s, nil
}

// EncodeState serializes a batch's resumable state: the scheduler's
// amortisation counters plus every member session's state. The per-round
// memos are not state — they are rebuilt as the next round's answers arrive.
func (b *Batch) EncodeState() []byte {
	w := codec.Writer{Buf: make([]byte, 0, 256*len(b.members))}
	if len(b.members) > 0 && b.members[0].opts.Group != nil {
		w.U8(stateVersionGroup)
	} else {
		w.U8(stateVersion)
	}
	st := b.sched.stats
	for _, v := range []int64{st.Selections, st.SelectionsShared, st.Partitions, st.PartitionsShared, st.Rounds} {
		w.Uvarint(uint64(v))
	}
	w.Uvarint(uint64(len(b.members)))
	for _, m := range b.members {
		m.encodeInto(&w)
	}
	return w.Buf
}

// DecodeBatch reconstructs a Batch from EncodeState output. Like NewBatch it
// mints the single shared strategy instance from f itself, so opts.Strategy
// must be nil; members resume against a fresh batch-wide arena and shared
// scheduler, and keep amortising exactly as the original batch did.
func DecodeBatch(c *dataset.Collection, f strategy.Factory, opts Options, data []byte) (*Batch, error) {
	if f == nil && opts.Group == nil {
		return nil, errors.New("discovery: DecodeBatch requires a strategy factory")
	}
	if opts.Strategy != nil {
		return nil, errors.New("discovery: Options.Strategy must be nil for DecodeBatch; the batch mints one shared instance from the factory")
	}
	r := codec.NewReader(data, errCorruptState)
	v := readVersion(&r, stateVersionGroup)
	var st BatchStats
	for _, dst := range []*int64{&st.Selections, &st.SelectionsShared, &st.Partitions, &st.PartitionsShared, &st.Rounds} {
		*dst = int64(r.Uint(math.MaxInt64))
	}
	n := r.Count(1)
	if n == 0 {
		r.Fail("batch without members")
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	sched := &scheduler{
		shared: true,
		sel:    make(map[dataset.Fingerprint]selEntry),
		parts:  make(map[partKey]partEntry),
		stats:  st,
	}
	if !opts.noScratch {
		sched.scratch = dataset.NewScratch()
	}
	if opts.Group == nil {
		if sf, ok := f.(strategy.ScratchFactory); ok && sched.scratch != nil {
			opts.Strategy = sf.NewWithScratch(sched.scratch)
		} else {
			opts.Strategy = f.New()
		}
	}
	b := &Batch{sched: sched, members: make([]*Session, 0, n)}
	for i := 0; i < n; i++ {
		m, err := decodeSessionInto(c, opts, sched, &r, v)
		if err != nil {
			return nil, fmt.Errorf("batch member %d: %w", i, err)
		}
		b.members = append(b.members, m)
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return b, nil
}
