// Package wireproto is the binary streaming data plane beside the /v1 JSON
// protocol: length-prefixed, CRC-guarded frames over persistent TCP
// connections, multiplexed so one connection carries many concurrent
// discovery sessions — each on its own channel — and a question↔answer
// round is a single frame exchange instead of a whole HTTP transaction.
//
// The protocol is deliberately tiny. A connection opens with a 5-byte
// preface ("SDWP" plus a version byte); after that both directions speak
// frames:
//
//	u32be  length   frame body size (6 .. MaxFrame)
//	body:
//	  u8       type      frame type (create/question/answer/result/error/batch-answer)
//	  uvarint  channel   client-chosen stream id, ≥ 1
//	  payload            type-specific, varint-encoded (the PR 5 state-codec discipline)
//	  u32be    crc       CRC-32 (IEEE) of body[:len-4]
//
// Channels are strictly request/response: the client sends one frame on a
// channel and waits for the single response frame before the next request,
// so no sequence numbers are needed; concurrency comes from interleaving
// frames of different channels on one connection. A create frame binds a
// channel to a new (or, via AttachID, an existing) session or batch; answer,
// batch-answer and result frames then address the bound resource without
// carrying its ID. Servers answer create/answer/batch-answer with a question
// frame, result with a result frame, and any failure with an error frame
// whose status codes mirror the JSON plane's HTTP statuses — the two planes
// are views of one resource model and are test-pinned byte-identical.
//
// Decoders treat input as untrusted: every count is bounded by the
// remaining input, every length is range-checked, and rejections wrap
// ErrBadFrame, never panic (fuzz-enforced by FuzzWireFrame).
package wireproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Preface opens every connection: magic plus the protocol version. Servers
// reject connections that do not start with it, so a stray HTTP client (or
// port scanner) fails fast instead of being parsed as frames.
const Preface = "SDWP\x01"

// MaxFrame bounds one frame's body. Interactive frames are tens of bytes;
// the bound exists for frames carrying inline session state (a backtracking
// session's trail holds one candidate set per answer) and matches the JSON
// plane's state-import body cap.
const MaxFrame = 64 << 20

// minFrame is the smallest well-formed body: type (1) + channel (≥1) +
// crc (4).
const minFrame = 6

// frameChunk is what ReadFrame allocates for a body before any of it has
// arrived. Larger bodies grow as their bytes arrive, so a length prefix alone
// cannot make the reader allocate MaxFrame; a body of at most frameChunk
// bytes still costs exactly one allocation.
const frameChunk = 64 << 10

// FrameType identifies a frame's payload layout.
type FrameType uint8

// The six frame types of the plane.
const (
	TypeCreate      FrameType = 1 // client→server: create or attach a session/batch
	TypeQuestion    FrameType = 2 // server→client: pending interaction snapshot
	TypeAnswer      FrameType = 3 // client→server: one session answer
	TypeResult      FrameType = 4 // both: empty payload requests, members answer
	TypeError       FrameType = 5 // server→client: HTTP-status-shaped failure
	TypeBatchAnswer FrameType = 6 // client→server: one round of member answers
)

// ErrBadFrame is wrapped by every frame rejection: truncated input, bad
// CRC, unknown type, hostile counts, out-of-range values. Callers classify
// with errors.Is.
var ErrBadFrame = errors.New("wireproto: bad frame")

func badFrame(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadFrame, fmt.Sprintf(format, args...))
}

// Message is one decoded frame. The concrete types are Create, Question,
// Answer, BatchAnswer, ResultRequest, Result and Error.
type Message interface {
	// Type returns the frame type carrying the message.
	Type() FrameType
	// ChannelID returns the stream the message belongs to.
	ChannelID() uint64

	encodePayload(w *writer)
}

// SessionConfig mirrors the JSON plane's engine configuration; zero values
// take the engine defaults.
type SessionConfig struct {
	Strategy     string
	Metric       string
	K            int
	Q            int
	MaxQuestions int
	BatchSize    int
	Backtrack    bool

	// GroupStrategy selects set-valued (group-testing) questions by
	// strategy name ("halving", "additive"); empty keeps entity questions.
	// GroupConstraints are the "if implies then" entity-name dependencies
	// honoured by the additive strategy. Both travel only when GroupStrategy
	// is set (the createGroup flag), so pre-group frames are byte-identical.
	GroupStrategy    string
	GroupConstraints [][2]string
}

// Create binds a channel to a discovery resource. With AttachID set it
// binds an existing session or batch (the failover/resume path — every
// other field but WantState is ignored); otherwise it creates one over
// Collection: a single session seeded by Seeds[0] (absent = whole
// collection), or — with Batch — a batch with one member per seed. The
// response is a Question frame; WantState asks it to carry the resource's
// portable snapshot inline (the JSON plane's ?include_state=1).
type Create struct {
	Channel    uint64
	AttachID   string
	Collection string
	Batch      bool
	Tree       bool
	WantState  bool
	Seeds      [][]string
	Config     SessionConfig
}

// MemberQuestion is one member's pending interaction; Entity/Confirm have
// the JSON plane's QuestionResponse semantics. Subset/Semantics carry a
// group session's set-valued question (the memberSubset flag; exactly one of
// Entity, Confirm and Subset is set while Done is false). Error reports a
// rejected reply from the batch-answer frame that produced this response.
type MemberQuestion struct {
	Member    int
	Done      bool
	Entity    string
	Confirm   string
	Subset    []string
	Semantics string
	Questions int
	Error     string
}

// Question is the server's snapshot of a resource's pending interaction —
// the response to create, answer and batch-answer frames. A single session
// is a resource of one member (index 0). State carries the portable
// snapshot when the request asked for it with WantState.
type Question struct {
	Channel uint64
	ID      string
	Done    bool
	Members []MemberQuestion
	State   []byte
}

// Answer replies to a bound session's pending question. Answer is "yes",
// "no" or "unknown" (JSON-plane aliases accepted); Entity/Confirm, when
// non-empty, assert which question is being answered — a mismatch is
// rejected with a 409-status Error frame, the retry guard that keeps a
// re-sent answer off the wrong question.
type Answer struct {
	Channel   uint64
	Answer    string
	Entity    string
	Confirm   string
	Subset    []string // asserts the pending subset question (group sessions)
	Semantics string
	WantState bool
}

// MemberAnswer is one batch member's reply.
type MemberAnswer struct {
	Member    int
	Answer    string
	Entity    string
	Confirm   string
	Subset    []string
	Semantics string
}

// BatchAnswer applies one round of replies to a bound batch; per-member
// failures are reported in the response Question's member entries while the
// rest of the round proceeds, mirroring POST /v1/batches/{id}/answers.
type BatchAnswer struct {
	Channel   uint64
	Answers   []MemberAnswer
	WantState bool
}

// ResultRequest asks for the bound resource's outcome (an empty-payload
// result frame).
type ResultRequest struct {
	Channel uint64
}

// MemberResult is one member's outcome, the JSON plane's ResultBody.
type MemberResult struct {
	Member          int
	Done            bool
	Target          string
	Candidates      []string
	Questions       int
	Interactions    int
	Backtracks      int
	SelectionTimeUS int64
	Error           string
}

// Result reports every member's outcome — the response to ResultRequest.
type Result struct {
	Channel uint64
	ID      string
	Done    bool
	Members []MemberResult
}

// Error is the server's failure reply on a channel. Status carries the
// HTTP status the JSON plane would have answered (400 bad request, 404
// unknown/expired, 409 stale question assertion, 503 no capacity/backend),
// so both planes share one error vocabulary.
type Error struct {
	Channel uint64
	Status  int
	Msg     string
}

func (*Create) Type() FrameType        { return TypeCreate }
func (*Question) Type() FrameType      { return TypeQuestion }
func (*Answer) Type() FrameType        { return TypeAnswer }
func (*BatchAnswer) Type() FrameType   { return TypeBatchAnswer }
func (*ResultRequest) Type() FrameType { return TypeResult }
func (*Result) Type() FrameType        { return TypeResult }
func (*Error) Type() FrameType         { return TypeError }

func (m *Create) ChannelID() uint64        { return m.Channel }
func (m *Question) ChannelID() uint64      { return m.Channel }
func (m *Answer) ChannelID() uint64        { return m.Channel }
func (m *BatchAnswer) ChannelID() uint64   { return m.Channel }
func (m *ResultRequest) ChannelID() uint64 { return m.Channel }
func (m *Result) ChannelID() uint64        { return m.Channel }
func (m *Error) ChannelID() uint64         { return m.Channel }

// writer appends the primitive encodings (the state-codec discipline:
// varints for every integer, length-prefixed strings and byte blobs).
type writer struct {
	buf []byte
}

func (w *writer) u8(b byte)        { w.buf = append(w.buf, b) }
func (w *writer) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *writer) bytes(b []byte) {
	w.uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Create flag bits. createGroup gates the group-testing configuration
// appended after the seeds — a pure extension: frames without the flag are
// byte-identical to the pre-group encoding, so old peers interoperate.
const (
	createTree      = 1 << 0
	createWantState = 1 << 1
	createBatch     = 1 << 2
	createBacktrack = 1 << 3
	createGroup     = 1 << 4
)

func (m *Create) encodePayload(w *writer) {
	var flags byte
	if m.Tree {
		flags |= createTree
	}
	if m.WantState {
		flags |= createWantState
	}
	if m.Batch {
		flags |= createBatch
	}
	if m.Config.Backtrack {
		flags |= createBacktrack
	}
	if m.Config.GroupStrategy != "" {
		flags |= createGroup
	}
	w.u8(flags)
	w.str(m.AttachID)
	w.str(m.Collection)
	w.str(m.Config.Strategy)
	w.str(m.Config.Metric)
	w.uvarint(uint64(m.Config.K))
	w.uvarint(uint64(m.Config.Q))
	w.uvarint(uint64(m.Config.MaxQuestions))
	w.uvarint(uint64(m.Config.BatchSize))
	w.uvarint(uint64(len(m.Seeds)))
	for _, seed := range m.Seeds {
		w.uvarint(uint64(len(seed)))
		for _, s := range seed {
			w.str(s)
		}
	}
	if m.Config.GroupStrategy != "" {
		w.str(m.Config.GroupStrategy)
		w.uvarint(uint64(len(m.Config.GroupConstraints)))
		for _, c := range m.Config.GroupConstraints {
			w.str(c[0])
			w.str(c[1])
		}
	}
}

// Question flag bits. memberSubset gates a set-valued question's semantics
// and member list appended after the per-member Error field; like
// createGroup it is a pure extension over the pre-group member encoding.
const (
	questionDone     = 1 << 0
	questionHasState = 1 << 1
	memberDone       = 1 << 0
	memberSubset     = 1 << 1
)

func (m *Question) encodePayload(w *writer) {
	var flags byte
	if m.Done {
		flags |= questionDone
	}
	if len(m.State) > 0 {
		flags |= questionHasState
	}
	w.u8(flags)
	w.str(m.ID)
	w.uvarint(uint64(len(m.Members)))
	for _, mq := range m.Members {
		w.uvarint(uint64(mq.Member))
		var mf byte
		if mq.Done {
			mf |= memberDone
		}
		if len(mq.Subset) > 0 {
			mf |= memberSubset
		}
		w.u8(mf)
		w.str(mq.Entity)
		w.str(mq.Confirm)
		w.uvarint(uint64(mq.Questions))
		w.str(mq.Error)
		if len(mq.Subset) > 0 {
			w.str(mq.Semantics)
			w.uvarint(uint64(len(mq.Subset)))
			for _, s := range mq.Subset {
				w.str(s)
			}
		}
	}
	if len(m.State) > 0 {
		w.bytes(m.State)
	}
}

// Answer flag bits. answerSubset gates the subset-question assertion
// appended after the entity/confirm assertions (for BatchAnswer: appended to
// every member, empty for members asserting an entity or confirm question).
const (
	answerWantState = 1 << 0
	answerSubset    = 1 << 1
)

func (m *Answer) encodePayload(w *writer) {
	var flags byte
	if m.WantState {
		flags |= answerWantState
	}
	if len(m.Subset) > 0 {
		flags |= answerSubset
	}
	w.u8(flags)
	w.str(m.Answer)
	w.str(m.Entity)
	w.str(m.Confirm)
	if len(m.Subset) > 0 {
		w.str(m.Semantics)
		w.uvarint(uint64(len(m.Subset)))
		for _, s := range m.Subset {
			w.str(s)
		}
	}
}

func (m *BatchAnswer) encodePayload(w *writer) {
	var flags byte
	if m.WantState {
		flags |= answerWantState
	}
	group := false
	for _, a := range m.Answers {
		if len(a.Subset) > 0 {
			group = true
			break
		}
	}
	if group {
		flags |= answerSubset
	}
	w.u8(flags)
	w.uvarint(uint64(len(m.Answers)))
	for _, a := range m.Answers {
		w.uvarint(uint64(a.Member))
		w.str(a.Answer)
		w.str(a.Entity)
		w.str(a.Confirm)
		if group {
			w.str(a.Semantics)
			w.uvarint(uint64(len(a.Subset)))
			for _, s := range a.Subset {
				w.str(s)
			}
		}
	}
}

func (m *ResultRequest) encodePayload(w *writer) {}

func (m *Result) encodePayload(w *writer) {
	var flags byte
	if m.Done {
		flags |= questionDone
	}
	w.u8(flags)
	w.str(m.ID)
	w.uvarint(uint64(len(m.Members)))
	for _, mr := range m.Members {
		w.uvarint(uint64(mr.Member))
		var mf byte
		if mr.Done {
			mf |= memberDone
		}
		w.u8(mf)
		w.str(mr.Target)
		w.uvarint(uint64(len(mr.Candidates)))
		for _, c := range mr.Candidates {
			w.str(c)
		}
		w.uvarint(uint64(mr.Questions))
		w.uvarint(uint64(mr.Interactions))
		w.uvarint(uint64(mr.Backtracks))
		w.uvarint(uint64(mr.SelectionTimeUS))
		w.str(mr.Error)
	}
}

func (m *Error) encodePayload(w *writer) {
	w.uvarint(uint64(m.Status))
	w.str(m.Msg)
}

// AppendFrame appends m's complete frame encoding (length prefix, body,
// CRC) to dst and returns the extended slice. It fails on a zero channel
// (reserved) and on frames that would exceed MaxFrame.
func AppendFrame(dst []byte, m Message) ([]byte, error) {
	if m.ChannelID() == 0 {
		return dst, errors.New("wireproto: channel 0 is reserved")
	}
	w := &writer{buf: dst}
	w.buf = append(w.buf, 0, 0, 0, 0) // length placeholder
	start := len(w.buf)
	w.u8(byte(m.Type()))
	w.uvarint(m.ChannelID())
	m.encodePayload(w)
	body := w.buf[start:]
	sum := crc32.ChecksumIEEE(body)
	w.buf = binary.BigEndian.AppendUint32(w.buf, sum)
	bodyLen := len(w.buf) - start
	if bodyLen > MaxFrame {
		return dst, fmt.Errorf("wireproto: frame of %d bytes exceeds MaxFrame", bodyLen)
	}
	binary.BigEndian.PutUint32(w.buf[start-4:start], uint32(bodyLen))
	return w.buf, nil
}

// ReadFrame reads and decodes one frame from r. It returns io.EOF only on a
// clean end before any byte of a frame; every other failure — truncation
// mid-frame, oversized length, CRC mismatch, malformed payload — wraps
// ErrBadFrame (except transport errors from r itself, which pass through).
func ReadFrame(r io.Reader) (Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, badFrame("truncated length prefix")
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < minFrame || n > MaxFrame {
		return nil, badFrame("frame length %d out of range", n)
	}
	body := make([]byte, min(int(n), frameChunk))
	for read := 0; ; {
		m, err := io.ReadFull(r, body[read:])
		read += m
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, badFrame("truncated frame body")
			}
			return nil, err
		}
		if read == int(n) {
			return DecodeFrame(body)
		}
		// The buffer is full and more is due: at most double it, so the
		// allocation never runs ahead of the bytes received.
		body = append(body, make([]byte, min(int(n)-read, read))...)
	}
}

// DecodeFrame decodes one frame body (everything after the length prefix),
// verifying the trailing CRC. Rejections wrap ErrBadFrame.
func DecodeFrame(body []byte) (Message, error) {
	if len(body) < minFrame {
		return nil, badFrame("body of %d bytes is too short", len(body))
	}
	payload, sumBytes := body[:len(body)-4], body[len(body)-4:]
	want := binary.BigEndian.Uint32(sumBytes)
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, badFrame("crc mismatch: computed %08x, frame says %08x", got, want)
	}
	r := &reader{data: payload}
	t, err := r.u8()
	if err != nil {
		return nil, err
	}
	ch, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if ch == 0 {
		return nil, badFrame("channel 0 is reserved")
	}
	var m Message
	switch FrameType(t) {
	case TypeCreate:
		m, err = decodeCreate(r, ch)
	case TypeQuestion:
		m, err = decodeQuestion(r, ch)
	case TypeAnswer:
		m, err = decodeAnswer(r, ch)
	case TypeBatchAnswer:
		m, err = decodeBatchAnswer(r, ch)
	case TypeResult:
		if len(r.data) == 0 {
			return &ResultRequest{Channel: ch}, nil
		}
		m, err = decodeResult(r, ch)
	case TypeError:
		m, err = decodeError(r, ch)
	default:
		return nil, badFrame("unknown frame type %d", t)
	}
	if err != nil {
		return nil, err
	}
	if len(r.data) != 0 {
		return nil, badFrame("%d trailing bytes after payload", len(r.data))
	}
	return m, nil
}

// reader consumes the primitive encodings, validating every length against
// the remaining input so hostile frames cannot size allocations.
type reader struct {
	data []byte
}

func (r *reader) u8() (byte, error) {
	if len(r.data) == 0 {
		return 0, badFrame("truncated payload")
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		return 0, badFrame("bad varint")
	}
	r.data = r.data[n:]
	return v, nil
}

// num decodes a non-negative integer, bounded so it can never overflow an
// int32 (every numeric field here — counts, statuses, member indexes — is
// far below that).
func (r *reader) num() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		return 0, badFrame("number %d out of range", v)
	}
	return int(v), nil
}

// num64 decodes a non-negative 64-bit value (selection time in µs).
func (r *reader) num64() (int64, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt64 {
		return 0, badFrame("number %d out of range", v)
	}
	return int64(v), nil
}

// count reads a list length and bounds it by the remaining input (every
// element costs at least one byte), so a forged count cannot force a huge
// allocation or spin an accumulation loop.
func (r *reader) count() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.data)) {
		return 0, badFrame("count %d exceeds remaining %d bytes", v, len(r.data))
	}
	return int(v), nil
}

func (r *reader) str() (string, error) {
	v, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if v > uint64(len(r.data)) {
		return "", badFrame("string of %d bytes exceeds remaining %d", v, len(r.data))
	}
	s := string(r.data[:v])
	r.data = r.data[v:]
	return s, nil
}

// blob reads a length-prefixed byte string, nil when empty so encode→decode
// round-trips exactly.
func (r *reader) blob() ([]byte, error) {
	v, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if v > uint64(len(r.data)) {
		return nil, badFrame("blob of %d bytes exceeds remaining %d", v, len(r.data))
	}
	if v == 0 {
		return nil, nil
	}
	b := make([]byte, v)
	copy(b, r.data[:v])
	r.data = r.data[v:]
	return b, nil
}

func decodeCreate(r *reader, ch uint64) (Message, error) {
	flags, err := r.u8()
	if err != nil {
		return nil, err
	}
	m := &Create{
		Channel:   ch,
		Tree:      flags&createTree != 0,
		WantState: flags&createWantState != 0,
		Batch:     flags&createBatch != 0,
	}
	m.Config.Backtrack = flags&createBacktrack != 0
	if m.AttachID, err = r.str(); err != nil {
		return nil, err
	}
	if m.Collection, err = r.str(); err != nil {
		return nil, err
	}
	if m.Config.Strategy, err = r.str(); err != nil {
		return nil, err
	}
	if m.Config.Metric, err = r.str(); err != nil {
		return nil, err
	}
	if m.Config.K, err = r.num(); err != nil {
		return nil, err
	}
	if m.Config.Q, err = r.num(); err != nil {
		return nil, err
	}
	if m.Config.MaxQuestions, err = r.num(); err != nil {
		return nil, err
	}
	if m.Config.BatchSize, err = r.num(); err != nil {
		return nil, err
	}
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if n > 0 {
		m.Seeds = make([][]string, 0, n)
		for i := 0; i < n; i++ {
			k, err := r.count()
			if err != nil {
				return nil, err
			}
			var seed []string
			if k > 0 {
				seed = make([]string, 0, k)
				for j := 0; j < k; j++ {
					s, err := r.str()
					if err != nil {
						return nil, err
					}
					seed = append(seed, s)
				}
			}
			m.Seeds = append(m.Seeds, seed)
		}
	}
	if flags&createGroup != 0 {
		if m.Config.GroupStrategy, err = r.str(); err != nil {
			return nil, err
		}
		if m.Config.GroupStrategy == "" {
			return nil, badFrame("group flag set but group strategy is empty")
		}
		k, err := r.count()
		if err != nil {
			return nil, err
		}
		if k > 0 {
			m.Config.GroupConstraints = make([][2]string, 0, k)
			for i := 0; i < k; i++ {
				var c [2]string
				if c[0], err = r.str(); err != nil {
					return nil, err
				}
				if c[1], err = r.str(); err != nil {
					return nil, err
				}
				m.Config.GroupConstraints = append(m.Config.GroupConstraints, c)
			}
		}
	}
	return m, nil
}

// readSubset reads a flag-gated subset block: semantics, member count,
// member names. Callers enforce their own non-empty requirements.
func readSubset(r *reader) (sem string, members []string, err error) {
	if sem, err = r.str(); err != nil {
		return "", nil, err
	}
	n, err := r.count()
	if err != nil {
		return "", nil, err
	}
	if n > 0 {
		members = make([]string, 0, n)
		for i := 0; i < n; i++ {
			s, err := r.str()
			if err != nil {
				return "", nil, err
			}
			members = append(members, s)
		}
	}
	return sem, members, nil
}

func decodeQuestion(r *reader, ch uint64) (Message, error) {
	flags, err := r.u8()
	if err != nil {
		return nil, err
	}
	m := &Question{Channel: ch, Done: flags&questionDone != 0}
	if m.ID, err = r.str(); err != nil {
		return nil, err
	}
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if n > 0 {
		m.Members = make([]MemberQuestion, 0, n)
		for i := 0; i < n; i++ {
			var mq MemberQuestion
			if mq.Member, err = r.num(); err != nil {
				return nil, err
			}
			mf, err := r.u8()
			if err != nil {
				return nil, err
			}
			mq.Done = mf&memberDone != 0
			if mq.Entity, err = r.str(); err != nil {
				return nil, err
			}
			if mq.Confirm, err = r.str(); err != nil {
				return nil, err
			}
			if mq.Questions, err = r.num(); err != nil {
				return nil, err
			}
			if mq.Error, err = r.str(); err != nil {
				return nil, err
			}
			if mf&memberSubset != 0 {
				if mq.Semantics, mq.Subset, err = readSubset(r); err != nil {
					return nil, err
				}
				if len(mq.Subset) == 0 {
					return nil, badFrame("subset flag set but subset is empty")
				}
			}
			m.Members = append(m.Members, mq)
		}
	}
	if flags&questionHasState != 0 {
		if m.State, err = r.blob(); err != nil {
			return nil, err
		}
		if len(m.State) == 0 {
			return nil, badFrame("state flag set but state is empty")
		}
	}
	return m, nil
}

func decodeAnswer(r *reader, ch uint64) (Message, error) {
	flags, err := r.u8()
	if err != nil {
		return nil, err
	}
	m := &Answer{Channel: ch, WantState: flags&answerWantState != 0}
	if m.Answer, err = r.str(); err != nil {
		return nil, err
	}
	if m.Entity, err = r.str(); err != nil {
		return nil, err
	}
	if m.Confirm, err = r.str(); err != nil {
		return nil, err
	}
	if flags&answerSubset != 0 {
		if m.Semantics, m.Subset, err = readSubset(r); err != nil {
			return nil, err
		}
		if len(m.Subset) == 0 {
			return nil, badFrame("subset flag set but subset is empty")
		}
	}
	return m, nil
}

func decodeBatchAnswer(r *reader, ch uint64) (Message, error) {
	flags, err := r.u8()
	if err != nil {
		return nil, err
	}
	m := &BatchAnswer{Channel: ch, WantState: flags&answerWantState != 0}
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	group := flags&answerSubset != 0
	anySubset := false
	if n > 0 {
		m.Answers = make([]MemberAnswer, 0, n)
		for i := 0; i < n; i++ {
			var a MemberAnswer
			if a.Member, err = r.num(); err != nil {
				return nil, err
			}
			if a.Answer, err = r.str(); err != nil {
				return nil, err
			}
			if a.Entity, err = r.str(); err != nil {
				return nil, err
			}
			if a.Confirm, err = r.str(); err != nil {
				return nil, err
			}
			if group {
				if a.Semantics, a.Subset, err = readSubset(r); err != nil {
					return nil, err
				}
				if len(a.Subset) > 0 {
					anySubset = true
				}
			}
			m.Answers = append(m.Answers, a)
		}
	}
	// The encoder sets the flag only when some member asserts a subset;
	// rejecting the degenerate frame keeps encodings canonical (round-trip
	// byte identity, which the fuzz targets pin).
	if group && !anySubset {
		return nil, badFrame("subset flag set but no member asserts a subset")
	}
	return m, nil
}

func decodeResult(r *reader, ch uint64) (Message, error) {
	flags, err := r.u8()
	if err != nil {
		return nil, err
	}
	m := &Result{Channel: ch, Done: flags&questionDone != 0}
	if m.ID, err = r.str(); err != nil {
		return nil, err
	}
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if n > 0 {
		m.Members = make([]MemberResult, 0, n)
		for i := 0; i < n; i++ {
			var mr MemberResult
			if mr.Member, err = r.num(); err != nil {
				return nil, err
			}
			mf, err := r.u8()
			if err != nil {
				return nil, err
			}
			mr.Done = mf&memberDone != 0
			if mr.Target, err = r.str(); err != nil {
				return nil, err
			}
			k, err := r.count()
			if err != nil {
				return nil, err
			}
			if k > 0 {
				mr.Candidates = make([]string, 0, k)
				for j := 0; j < k; j++ {
					c, err := r.str()
					if err != nil {
						return nil, err
					}
					mr.Candidates = append(mr.Candidates, c)
				}
			}
			if mr.Questions, err = r.num(); err != nil {
				return nil, err
			}
			if mr.Interactions, err = r.num(); err != nil {
				return nil, err
			}
			if mr.Backtracks, err = r.num(); err != nil {
				return nil, err
			}
			if mr.SelectionTimeUS, err = r.num64(); err != nil {
				return nil, err
			}
			if mr.Error, err = r.str(); err != nil {
				return nil, err
			}
			m.Members = append(m.Members, mr)
		}
	}
	return m, nil
}

func decodeError(r *reader, ch uint64) (Message, error) {
	m := &Error{Channel: ch}
	var err error
	if m.Status, err = r.num(); err != nil {
		return nil, err
	}
	if m.Msg, err = r.str(); err != nil {
		return nil, err
	}
	return m, nil
}

// WritePreface sends the connection preface; clients call it once before
// their first frame.
func WritePreface(w io.Writer) error {
	_, err := io.WriteString(w, Preface)
	return err
}

// ReadPreface validates the connection preface; servers call it once before
// their frame loop. A wrong magic or version wraps ErrBadFrame.
func ReadPreface(r io.Reader) error {
	var buf [len(Preface)]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return badFrame("truncated preface")
		}
		return err
	}
	if string(buf[:]) != Preface {
		return badFrame("bad preface %q", buf[:])
	}
	return nil
}
