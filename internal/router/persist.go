package router

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync"

	"setdiscovery/internal/codec"
)

// Durable routing state. With WithPersist the router journals every
// placement-affecting mutation — backend add/remove/drain, affinity
// set/drop — to an append-only log, so a restarted router resumes routing
// every live session without a rediscovery stampede: replay the log, and
// the affinity table and backend set are back.
//
// The format is length-prefixed, CRC-guarded records behind a 5-byte
// header ("SDRL" + version). The decoder treats the file as untrusted
// input per the decoderbounds discipline: every count is bounded by the
// bytes that remain before it sizes anything, a record whose CRC or length
// does not check out ends the replay at the last good record (a torn tail
// from a crash mid-append loses that one append, never the log), and
// unknown record types are skipped so older routers can read newer logs.
// On open, the file is truncated back to its valid prefix so new appends
// extend good state.
//
// The log compacts itself: once the append count since open outgrows the
// live state several times over, the current state is rewritten as a fresh
// snapshot+tail file (write-temp-then-rename, so a crash mid-compaction
// leaves the old log intact).

// ErrBadLog reports a persisted-router-state file that is not a log at all
// (bad magic or unsupported version). Damage past the header is tolerated
// by valid-prefix replay instead. Classify with errors.Is.
var ErrBadLog = errors.New("router: bad persist log")

// WithPersist journals routing state to path (created on first use). Replay
// happens inside New; any I/O error is recorded and reported by
// PersistError — a daemon should treat that as fatal, while the router
// itself keeps serving (persistence off) so a read-only disk degrades
// durability, not availability.
func WithPersist(path string) Option {
	return func(rt *Router) { rt.persistPath = path }
}

// PersistError reports whether WithPersist's log could be opened and
// replayed. A nil error with WithPersist set means durability is active.
func (rt *Router) PersistError() error { return rt.persistErr }

// Log record types.
const (
	opAddBackend    = byte(1) // name, url
	opRemoveBackend = byte(2) // name
	opSetDraining   = byte(3) // name, flag
	opSetOwner      = byte(4) // id, backend name, kindPath, collection
	opDropOwner     = byte(5) // id
)

// logMagic and logVersion head every log file.
var logMagic = [4]byte{'S', 'D', 'R', 'L'}

const logVersion = byte(1)

// maxLogRecord bounds one record's payload: IDs are ≤128 bytes and names,
// URLs and collection names are human-scale strings, so anything larger is
// corruption, not data.
const maxLogRecord = 1 << 16

// record is one decoded log entry.
type record struct {
	op                                  byte
	name, url, id, kindPath, collection string
	flag                                bool
}

// logBackend is a backend's durable identity.
type logBackend struct {
	url      string
	draining bool
}

// logOwner is an affinity entry's durable fields (lastSeen restarts fresh:
// a replayed entry begins a new aging window).
type logOwner struct {
	backend    string
	kindPath   string
	collection string
}

// logState is the state a log replays to: the mirror the live log keeps for
// compaction, and what a restarted router adopts.
type logState struct {
	backends map[string]logBackend
	owners   map[string]logOwner
}

func newLogState() *logState {
	return &logState{backends: make(map[string]logBackend), owners: make(map[string]logOwner)}
}

// apply folds one record into the state. Owner records naming an unknown
// backend are dropped: they cannot be routed, and keeping them would make
// replay order-dependent.
func (st *logState) apply(r record) {
	switch r.op {
	case opAddBackend:
		st.backends[r.name] = logBackend{url: r.url}
	case opRemoveBackend:
		delete(st.backends, r.name)
		for id, own := range st.owners {
			if own.backend == r.name {
				delete(st.owners, id)
			}
		}
	case opSetDraining:
		if b, ok := st.backends[r.name]; ok {
			b.draining = r.flag
			st.backends[r.name] = b
		}
	case opSetOwner:
		if _, ok := st.backends[r.name]; ok {
			st.owners[r.id] = logOwner{backend: r.name, kindPath: r.kindPath, collection: r.collection}
		}
	case opDropOwner:
		delete(st.owners, r.id)
	}
}

// size is the number of live records a snapshot of the state needs.
func (st *logState) size() int { return len(st.backends) + len(st.owners) }

// --- record encoding ---

// encodeRecord renders one record as a framed log entry: uvarint payload
// length, payload, CRC32 (IEEE, little-endian) of the payload.
func encodeRecord(r record) []byte {
	p := codec.Writer{Buf: []byte{r.op}}
	switch r.op {
	case opAddBackend:
		p.String(r.name)
		p.String(r.url)
	case opRemoveBackend:
		p.String(r.name)
	case opSetDraining:
		p.String(r.name)
		p.Bool(r.flag)
	case opSetOwner:
		p.String(r.id)
		p.String(r.name)
		p.String(r.kindPath)
		p.String(r.collection)
	case opDropOwner:
		p.String(r.id)
	}
	var w codec.Writer
	w.Bytes(p.Buf)
	w.LE32(crc32.ChecksumIEEE(p.Buf))
	return w.Buf
}

// decodeRecord parses one framed record's payload. ok=false means the
// payload is malformed (replay treats that like a CRC failure: end of the
// valid prefix).
func decodeRecord(payload []byte) (record, bool) {
	r := codec.NewReader(payload, ErrBadLog)
	rec := record{op: r.U8()}
	switch rec.op {
	case opAddBackend:
		rec.name, rec.url = r.String(), r.String()
	case opRemoveBackend:
		rec.name = r.String()
	case opSetDraining:
		rec.name = r.String()
		rec.flag = r.U8() == 1
	case opSetOwner:
		rec.id, rec.name, rec.kindPath, rec.collection = r.String(), r.String(), r.String(), r.String()
	case opDropOwner:
		rec.id = r.String()
	default:
		// Unknown op from a newer router: skip the record (the frame
		// already CRC-checked), keeping the prefix valid.
		r.Rest()
	}
	return rec, r.End() == nil
}

// decodeLogState replays a log image. It returns the resulting state and
// the length of the valid prefix (header plus every cleanly framed,
// CRC-verified record up to the first damage or truncation — which are
// tolerated, not errors). Only a missing/foreign header errors, wrapping
// ErrBadLog.
func decodeLogState(data []byte) (*logState, int, error) {
	r := codec.NewReader(data, ErrBadLog)
	r.Magic(string(logMagic[:]))
	if v := r.U8(); v != logVersion {
		r.Fail("unsupported version %d", v)
	}
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	st := newLogState()
	valid := len(data) - r.Len()
	for r.Len() > 0 {
		// A torn or corrupt tail ends replay at the last good record.
		payload := r.Bytes()
		crc := r.LE32()
		if r.Err() != nil || len(payload) > maxLogRecord || crc32.ChecksumIEEE(payload) != crc {
			break
		}
		rec, ok := decodeRecord(payload)
		if !ok {
			break
		}
		st.apply(rec)
		valid = len(data) - r.Len()
	}
	return st, valid, nil
}

// encodeLogSnapshot renders a state as a fresh log: header plus one record
// per backend (sorted by name), drain flags, and one per owner (sorted by
// id) — deterministic, so identical states encode identically.
func encodeLogSnapshot(st *logState) []byte {
	out := append([]byte{}, logMagic[:]...)
	out = append(out, logVersion)
	names := make([]string, 0, len(st.backends))
	for name := range st.backends {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := st.backends[name]
		out = append(out, encodeRecord(record{op: opAddBackend, name: name, url: b.url})...)
		if b.draining {
			out = append(out, encodeRecord(record{op: opSetDraining, name: name, flag: true})...)
		}
	}
	ids := make([]string, 0, len(st.owners))
	for id := range st.owners {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		own := st.owners[id]
		out = append(out, encodeRecord(record{
			op: opSetOwner, id: id, name: own.backend,
			kindPath: own.kindPath, collection: own.collection,
		})...)
	}
	return out
}

// persistLog is the live append handle plus the state mirror compaction
// rewrites from. Its mutex is always acquired after rt.mu (never the other
// way), so appends may run under the router lock.
type persistLog struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	state   *logState
	records int // appends since open/compaction
	logf    func(format string, args ...any)
}

// compactSlack: compact when the journal holds this many more records than
// a snapshot of the live state would.
const compactSlack = 1024

// openLog opens (or creates) the log at path, replays it, and truncates any
// torn tail so appends extend the valid prefix. The returned state is what
// the router adopts.
func openLog(path string, logf func(format string, args ...any)) (*persistLog, *logState, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("router: opening persist log: %w", err)
	}
	data, err := readAllFile(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("router: reading persist log: %w", err)
	}
	pl := &persistLog{f: f, path: path, logf: logf}
	if len(data) == 0 {
		pl.state = newLogState()
		header := append(append([]byte{}, logMagic[:]...), logVersion)
		if _, err := f.Write(header); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("router: initialising persist log: %w", err)
		}
		return pl, pl.state, nil
	}
	st, valid, err := decodeLogState(data)
	if err != nil {
		// Not a log at all: refuse rather than overwrite what might be
		// someone else's file.
		f.Close()
		return nil, nil, err
	}
	if valid < len(data) {
		logf("router: persist log %s: dropping %d bytes of torn tail after %d valid bytes", path, len(data)-valid, valid)
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("router: truncating persist log tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("router: seeking persist log: %w", err)
	}
	pl.state = st
	return pl, st, nil
}

// readAllFile reads the whole file from the start.
func readAllFile(f *os.File) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, fi.Size())
	if _, err := f.ReadAt(data, 0); err != nil && fi.Size() > 0 {
		return nil, err
	}
	return data, nil
}

// append journals one record, folding it into the mirror and compacting
// when the journal has outgrown the live state. Failures are logged, not
// returned: losing durability must not fail the routing operation that
// triggered the append.
func (pl *persistLog) append(r record) {
	if pl == nil {
		return
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.state.apply(r)
	if _, err := pl.f.Write(encodeRecord(r)); err != nil {
		pl.logf("router: appending to persist log: %v", err)
		return
	}
	pl.records++
	if pl.records > 4*pl.state.size()+compactSlack {
		pl.compactLocked()
	}
}

// compactLocked rewrites the log as a snapshot of the mirror:
// write-temp-then-rename, reopening the handle on the fresh file.
func (pl *persistLog) compactLocked() {
	tmp := pl.path + ".tmp"
	if err := os.WriteFile(tmp, encodeLogSnapshot(pl.state), 0o644); err != nil {
		pl.logf("router: compacting persist log: %v", err)
		return
	}
	if err := os.Rename(tmp, pl.path); err != nil {
		pl.logf("router: compacting persist log: %v", err)
		return
	}
	f, err := os.OpenFile(pl.path, os.O_RDWR, 0o644)
	if err != nil {
		pl.logf("router: reopening compacted persist log: %v", err)
		return
	}
	if _, err := f.Seek(0, 2); err != nil {
		pl.logf("router: seeking compacted persist log: %v", err)
		f.Close()
		return
	}
	pl.f.Close()
	pl.f = f
	pl.records = 0
	pl.logf("router: compacted persist log %s to %d records", pl.path, pl.state.size())
}

// Close flushes and closes the log handle (a nil log is a no-op).
func (pl *persistLog) Close() error {
	if pl == nil {
		return nil
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.f.Close()
}
