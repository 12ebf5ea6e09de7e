package setdiscovery

import (
	"errors"
	"fmt"

	"setdiscovery/internal/codec"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/discovery"
	"setdiscovery/internal/strategy"
)

// Portable sessions: Snapshot serializes a suspended Session or Batch into a
// compact, versioned, self-describing byte string; RestoreSession /
// RestoreBatch reconstruct it — on this process or another one — so the
// discovery resumes exactly where it stopped: same remaining question
// sequence, same counters, same Result as if it had never been suspended
// (test-pinned across strategies, "don't know" answers and backtracking).
//
// A snapshot embeds the configuration the session was created under
// (strategy, lookahead, halting, backtracking), so the restoring side needs
// only the collection — it does not need to know how the session was
// configured. Host-local tuning (WithCacheBound, WithParallelism) is not
// part of a snapshot; pass it to RestoreSession/RestoreBatch instead.
// Restore-side options are applied after the embedded configuration and win
// on conflict.
//
// Envelope layout (everything after the fixed header is uvarint/length-
// prefixed):
//
//	"SDSS" | version (1) | kind | collection content fingerprint (16 bytes)
//	      | configuration (loop and batch kinds) | state payload
//
// Version 2 is read, never written. Earlier releases wrote it for sessions
// that carried a memo-delta section — entries of a collection-wide selection
// memo that no longer exists — after a length-prefixed state payload:
//
//	"SDSS" | version (2) | kind | fingerprint | configuration
//	      | state length | state payload | memo delta
//
// Decoders restore the state and skip the delta: it was advisory performance
// state, and the restored session's behaviour never depended on it.
//
// Version 3 marks a group-testing session or batch (WithGroupStrategy): the
// configuration section is followed by a group section — strategy name plus
// the WithGroupConstraint entity-name pairs — and the state payload carries
// the suspended set-valued question:
//
//	"SDSS" | version (3) | kind | fingerprint | configuration
//	      | group configuration | state payload
//
// Writers emit version 1 unless there is a group configuration to carry, so
// snapshots of entity sessions stay byte-identical to earlier releases;
// decoders accept all three versions.
//
// The collection fingerprint guards against restoring over a different
// collection, where set indexes and entity IDs would silently mean something
// else; tree-session snapshots are additionally replay-verified against the
// tree they are restored onto. Snapshots are not authenticated: treat them
// like any other client-supplied state and restore only over the collection
// they were exported from.

// snapshotMagic identifies a setdiscovery snapshot; the trailing byte is the
// envelope version.
const snapshotMagic = "SDSS"

// snapshotVersion is the base envelope version; snapshotVersionDelta marks a
// legacy envelope whose state payload is length-prefixed and followed by a
// memo delta (read only); snapshotVersionGroup marks a group-testing envelope
// whose configuration is followed by a group section. Decoders reject
// versions they do not know rather than guessing at layouts.
const (
	snapshotVersion      = 1
	snapshotVersionDelta = 2
	snapshotVersionGroup = 3
)

// SnapshotKind discriminates what a snapshot contains.
type SnapshotKind byte

const (
	// SnapshotSession is a strategy-loop Session (Collection.NewSession).
	SnapshotSession SnapshotKind = 1
	// SnapshotTreeSession is a prebuilt-tree walk (Tree.NewSession).
	SnapshotTreeSession SnapshotKind = 2
	// SnapshotBatch is a Batch of sessions (Collection.NewBatch).
	SnapshotBatch SnapshotKind = 3
)

// String names the kind for diagnostics and wire payloads.
func (k SnapshotKind) String() string {
	switch k {
	case SnapshotSession:
		return "session"
	case SnapshotTreeSession:
		return "tree-session"
	case SnapshotBatch:
		return "batch"
	default:
		return fmt.Sprintf("SnapshotKind(%d)", byte(k))
	}
}

// ErrBadSnapshot is wrapped by every snapshot decoding failure: foreign or
// corrupted bytes, an unknown version, or state that does not belong to the
// restoring collection or tree.
var ErrBadSnapshot = errors.New("setdiscovery: invalid snapshot")

// Snapshot serializes the session's suspended state. It is non-destructive
// — the session continues unaffected — so state can be exported at every
// suspension point (a serving layer does it per round-trip). Restore with
// Collection.RestoreSession, or Tree.RestoreSession for tree-walk sessions.
func (s *Session) Snapshot() ([]byte, error) {
	switch core := s.s.(type) {
	case *discovery.Session:
		return envelope(SnapshotSession, s.c, &s.cfg, core.EncodeState()), nil
	case *discovery.TreeSession:
		return envelope(SnapshotTreeSession, s.c, nil, core.EncodeState()), nil
	default:
		return nil, fmt.Errorf("setdiscovery: unsupported session core %T", s.s)
	}
}

// Snapshot serializes the whole batch — every member's suspended state plus
// the scheduler's amortisation counters. Restore with
// Collection.RestoreBatch.
func (b *Batch) Snapshot() ([]byte, error) {
	return envelope(SnapshotBatch, b.c, &b.cfg, b.b.EncodeState()), nil
}

// RestoreSession reconstructs a session from Snapshot output, bound to this
// collection — which must be the one the snapshot was exported from (guarded
// by a content fingerprint). opts are applied on top of the snapshot's
// embedded configuration; use them for host-local tuning such as
// WithCacheBound. Tree-session snapshots must be restored with
// Tree.RestoreSession instead, batches with RestoreBatch.
func (c *Collection) RestoreSession(data []byte, opts ...Option) (*Session, error) {
	cfg, payload, err := c.openEnvelope(data, SnapshotSession, opts)
	if err != nil {
		return nil, err
	}
	o, err := c.engineOptions(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	s, err := discovery.DecodeSession(c.c, o, payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	return &Session{c: c, s: s, cfg: cfg}, nil
}

// RestoreSession reconstructs a tree-walk session from Snapshot output over
// this tree. The snapshot's path is replayed and verified question by
// question, so state exported from a structurally different tree (or a
// different collection) is rejected rather than silently walking to a wrong
// leaf.
func (t *Tree) RestoreSession(data []byte) (*Session, error) {
	_, payload, err := t.c.openEnvelope(data, SnapshotTreeSession, nil)
	if err != nil {
		return nil, err
	}
	s, err := discovery.DecodeTreeSession(t.c.c, t.t, payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	return &Session{c: t.c, s: s, tree: t}, nil
}

// RestoreBatch reconstructs a batch from Batch.Snapshot output, bound to
// this collection. Members resume against a fresh shared scheduler and keep
// amortising exactly as before the suspension.
func (c *Collection) RestoreBatch(data []byte, opts ...Option) (*Batch, error) {
	cfg, payload, err := c.openEnvelope(data, SnapshotBatch, opts)
	if err != nil {
		return nil, err
	}
	o := discoveryOptions(cfg, nil)
	var f strategy.Factory
	if cfg.groupStrategy != "" {
		gf, err := c.groupFactory(cfg)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
		}
		o.Group = gf.New()
	} else {
		if f, err = c.factory(cfg); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
		}
	}
	b, err := discovery.DecodeBatch(c.c, f, o, payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	return &Batch{c: c, b: b, cfg: cfg}, nil
}

// SnapshotInfo describes a snapshot without restoring it — what kind of
// resource it holds — so a serving layer can route the bytes to the right
// restore call.
type SnapshotInfo struct {
	Kind SnapshotKind
}

// ReadSnapshotInfo peeks at a snapshot's envelope header.
func ReadSnapshotInfo(data []byte) (SnapshotInfo, error) {
	r := codec.NewReader(data, ErrBadSnapshot)
	_, kind, _ := readHeader(&r)
	if err := r.Err(); err != nil {
		return SnapshotInfo{}, err
	}
	return SnapshotInfo{Kind: kind}, nil
}

// discoveryOptions maps the behaviour-relevant half of a config to engine
// options (the other half — strategy selection — travels through the
// factory; strat stays nil for batches, which mint their own shared
// instance).
func discoveryOptions(cfg config, strat strategy.Strategy) discovery.Options {
	return discovery.Options{
		Strategy:      strat,
		MaxQuestions:  cfg.maxQuestions,
		BatchSize:     cfg.batchSize,
		Backtrack:     cfg.backtrack,
		ConfirmTarget: cfg.confirm,
	}
}

// envelope wraps a state payload of the given kind over c. Kinds other
// than tree sessions carry their configuration cfg, and a group-testing
// configuration needs the version-3 envelope: restoring one requires the
// group section to mint the right strategy.
func envelope(kind SnapshotKind, c *Collection, cfg *config, state []byte) []byte {
	version := byte(snapshotVersion)
	if cfg != nil && cfg.groupStrategy != "" {
		version = snapshotVersionGroup
	}
	w := codec.Writer{Buf: make([]byte, 0, 64+len(state))}
	w.Buf = append(w.Buf, snapshotMagic...)
	w.U8(version)
	w.U8(byte(kind))
	fp := c.c.ContentFingerprint()
	w.BE64(fp.Hi)
	w.BE64(fp.Lo)
	if cfg != nil {
		writeConfig(&w, cfg)
	}
	return append(w.Buf, state...)
}

// writeConfig appends the behaviour-relevant configuration: everything that
// decides which questions get asked or when the session halts. Host-local
// tuning (cache bound, build parallelism) is deliberately absent. A group
// configuration is followed by the version-3 group section: the group
// strategy's name and the constraint entity-name pairs it was configured
// with. Constraint names (not IDs) travel so the section stays meaningful to
// a human and the restoring side re-resolves them against its own
// dictionary.
func writeConfig(w *codec.Writer, cfg *config) {
	w.String(cfg.strategyName)
	var metric byte
	if cfg.metric == Height {
		metric = 1
	}
	w.U8(metric)
	for _, v := range []int{cfg.k, cfg.q, cfg.maxQuestions, cfg.batchSize} {
		w.Uvarint(uint64(v))
	}
	var flags byte
	if cfg.backtrack {
		flags |= 1
	}
	if cfg.confirm {
		flags |= 2
	}
	w.U8(flags)
	if cfg.groupStrategy == "" {
		return
	}
	w.String(cfg.groupStrategy)
	w.Uvarint(uint64(len(cfg.groupConstraints)))
	for _, pair := range cfg.groupConstraints {
		w.String(pair[0])
		w.String(pair[1])
	}
}

func badSnapshot(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
}

// readHeader reads and validates the fixed header: magic, version, kind and
// collection fingerprint.
func readHeader(r *codec.Reader) (byte, SnapshotKind, dataset.Fingerprint) {
	r.Magic(snapshotMagic)
	version, kind := r.U8(), SnapshotKind(r.U8())
	fp := dataset.Fingerprint{Hi: r.BE64(), Lo: r.BE64()}
	if version != snapshotVersion && version != snapshotVersionDelta && version != snapshotVersionGroup {
		r.Fail("unknown snapshot version %d", version)
	}
	if kind != SnapshotSession && kind != SnapshotTreeSession && kind != SnapshotBatch {
		r.Fail("unknown snapshot kind %d", byte(kind))
	}
	return version, kind, fp
}

// openEnvelope parses and validates the header against this collection and
// the expected kind, decodes the embedded configuration (loop and batch
// kinds) and applies the caller's restore-side options on top. It returns the
// final configuration and the state payload; a version-2 envelope's memo
// delta is skipped.
func (c *Collection) openEnvelope(data []byte, want SnapshotKind, opts []Option) (config, []byte, error) {
	cfg := defaultConfig()
	r := codec.NewReader(data, ErrBadSnapshot)
	version, kind, fp := readHeader(&r)
	if err := r.Err(); err != nil {
		return cfg, nil, err
	}
	if kind != want {
		hint := ""
		switch kind {
		case SnapshotTreeSession:
			hint = " (restore it with Tree.RestoreSession)"
		case SnapshotSession:
			hint = " (restore it with Collection.RestoreSession)"
		case SnapshotBatch:
			hint = " (restore it with Collection.RestoreBatch)"
		}
		return cfg, nil, badSnapshot("snapshot holds a %s, not a %s%s", kind, want, hint)
	}
	if got := c.c.ContentFingerprint(); got != fp {
		return cfg, nil, badSnapshot("snapshot was exported from a different collection")
	}
	if kind != SnapshotTreeSession {
		readConfig(&r, &cfg, version == snapshotVersionGroup)
	} else if version == snapshotVersionGroup {
		return cfg, nil, badSnapshot("tree sessions have no group mode")
	}
	for _, o := range opts {
		o(&cfg)
	}
	var payload []byte
	if version == snapshotVersionDelta {
		payload = r.Bytes()
	} else {
		payload = r.Rest()
	}
	return cfg, payload, r.Err()
}

// readConfig decodes the configuration section (and, with group, the
// version-3 group section) into cfg.
func readConfig(r *codec.Reader, cfg *config, group bool) {
	cfg.strategyName = r.String()
	switch metric := r.U8(); metric {
	case 0:
		cfg.metric = AverageDepth
	case 1:
		cfg.metric = Height
	default:
		r.Fail("unknown metric %d", metric)
	}
	// Snapshot input is untrusted: parameters feed straight into strategy
	// construction (which rejects k < 1 by panicking — a programmer error on
	// the normal path) and into lookahead whose cost grows with k, so both
	// floor and ceiling are enforced here.
	for _, f := range []struct {
		dst      *int
		min, max uint64
	}{
		{&cfg.k, 1, 64},
		{&cfg.q, 1, 1 << 20},
		{&cfg.maxQuestions, 0, 1 << 20},
		{&cfg.batchSize, 0, 1 << 20},
	} {
		v := r.Uint(f.max)
		if v < f.min {
			r.Fail("configuration value %d below %d", v, f.min)
		}
		*f.dst = int(v)
	}
	flags := r.U8()
	if flags > 3 {
		r.Fail("unknown configuration flags %#x", flags)
	}
	cfg.backtrack = flags&1 != 0
	cfg.confirm = flags&2 != 0
	if !group {
		return
	}
	// Strategy and entity names are re-validated downstream (the group
	// factory rejects unknown strategies and constraint entities absent
	// from the collection); here only the framing and untrusted-input
	// bounds are checked.
	if cfg.groupStrategy = r.String(); cfg.groupStrategy == "" || len(cfg.groupStrategy) > 64 {
		r.Fail("bad group strategy %q in a group envelope", cfg.groupStrategy)
	}
	cfg.groupConstraints = codec.List(r, 2, 1<<16, func() [2]string {
		pair := [2]string{r.String(), r.String()}
		if len(pair[0]) > 1<<10 || len(pair[1]) > 1<<10 {
			r.Fail("group constraint name longer than %d bytes", 1<<10)
		}
		return pair
	})
}
