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
//	  payload            type-specific, varint-encoded (the internal/codec discipline)
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
// Decoders treat input as untrusted: they read through internal/codec, so
// every count is bounded by the remaining input, every length is
// range-checked, and rejections wrap ErrBadFrame, never panic
// (fuzz-enforced by FuzzWireFrame). Servers read their clients' frames with
// ReadRequestFrame, whose smaller size bound is what caps the memory one
// well-formed frame can make them decode into.
package wireproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"setdiscovery/internal/codec"
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

// MaxRequestFrame bounds the body of a frame read by ReadRequestFrame. The
// frames clients send (create, answer, batch-answer, result request) never
// carry session state, so they share the JSON plane's 1 MiB request-body
// cap. Decoding multiplies small encodings: a 4-byte batch-answer member
// becomes a 96-byte MemberAnswer, a 1-byte string a 16-byte header. This
// bound keeps a client frame's decoded form to tens of MiB, where MaxFrame
// would allow gigabytes.
const MaxRequestFrame = 1 << 20

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

	// appendPayload appends the type-specific payload to b. It takes and
	// returns the slice, not a *codec.Writer, so the writer stays on the
	// stack of each implementation despite the dynamic call.
	appendPayload(b []byte) []byte
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
// snapshot when the request asked for it with WantState; a decoded State
// aliases the frame body it was read from.
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

func (m *Create) appendPayload(b []byte) []byte {
	w := codec.Writer{Buf: b}
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
	w.U8(flags)
	w.String(m.AttachID)
	w.String(m.Collection)
	w.String(m.Config.Strategy)
	w.String(m.Config.Metric)
	w.Uvarint(uint64(m.Config.K))
	w.Uvarint(uint64(m.Config.Q))
	w.Uvarint(uint64(m.Config.MaxQuestions))
	w.Uvarint(uint64(m.Config.BatchSize))
	w.Uvarint(uint64(len(m.Seeds)))
	for _, seed := range m.Seeds {
		writeStrings(&w, seed)
	}
	if m.Config.GroupStrategy != "" {
		w.String(m.Config.GroupStrategy)
		w.Uvarint(uint64(len(m.Config.GroupConstraints)))
		for _, c := range m.Config.GroupConstraints {
			w.String(c[0])
			w.String(c[1])
		}
	}
	return w.Buf
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

func (m *Question) appendPayload(b []byte) []byte {
	w := codec.Writer{Buf: b}
	var flags byte
	if m.Done {
		flags |= questionDone
	}
	if len(m.State) > 0 {
		flags |= questionHasState
	}
	w.U8(flags)
	w.String(m.ID)
	w.Uvarint(uint64(len(m.Members)))
	for _, mq := range m.Members {
		w.Uvarint(uint64(mq.Member))
		var mf byte
		if mq.Done {
			mf |= memberDone
		}
		if len(mq.Subset) > 0 {
			mf |= memberSubset
		}
		w.U8(mf)
		w.String(mq.Entity)
		w.String(mq.Confirm)
		w.Uvarint(uint64(mq.Questions))
		w.String(mq.Error)
		if len(mq.Subset) > 0 {
			w.String(mq.Semantics)
			writeStrings(&w, mq.Subset)
		}
	}
	if len(m.State) > 0 {
		w.Bytes(m.State)
	}
	return w.Buf
}

// Answer flag bits. answerSubset gates the subset-question assertion
// appended after the entity/confirm assertions (for BatchAnswer: appended to
// every member, empty for members asserting an entity or confirm question).
const (
	answerWantState = 1 << 0
	answerSubset    = 1 << 1
)

func (m *Answer) appendPayload(b []byte) []byte {
	w := codec.Writer{Buf: b}
	var flags byte
	if m.WantState {
		flags |= answerWantState
	}
	if len(m.Subset) > 0 {
		flags |= answerSubset
	}
	w.U8(flags)
	w.String(m.Answer)
	w.String(m.Entity)
	w.String(m.Confirm)
	if len(m.Subset) > 0 {
		w.String(m.Semantics)
		writeStrings(&w, m.Subset)
	}
	return w.Buf
}

func (m *BatchAnswer) appendPayload(b []byte) []byte {
	w := codec.Writer{Buf: b}
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
	w.U8(flags)
	w.Uvarint(uint64(len(m.Answers)))
	for _, a := range m.Answers {
		w.Uvarint(uint64(a.Member))
		w.String(a.Answer)
		w.String(a.Entity)
		w.String(a.Confirm)
		if group {
			w.String(a.Semantics)
			writeStrings(&w, a.Subset)
		}
	}
	return w.Buf
}

func (m *ResultRequest) appendPayload(b []byte) []byte { return b }

func (m *Result) appendPayload(b []byte) []byte {
	w := codec.Writer{Buf: b}
	var flags byte
	if m.Done {
		flags |= questionDone
	}
	w.U8(flags)
	w.String(m.ID)
	w.Uvarint(uint64(len(m.Members)))
	for _, mr := range m.Members {
		w.Uvarint(uint64(mr.Member))
		var mf byte
		if mr.Done {
			mf |= memberDone
		}
		w.U8(mf)
		w.String(mr.Target)
		writeStrings(&w, mr.Candidates)
		w.Uvarint(uint64(mr.Questions))
		w.Uvarint(uint64(mr.Interactions))
		w.Uvarint(uint64(mr.Backtracks))
		w.Uvarint(uint64(mr.SelectionTimeUS))
		w.String(mr.Error)
	}
	return w.Buf
}

func (m *Error) appendPayload(b []byte) []byte {
	w := codec.Writer{Buf: b}
	w.Uvarint(uint64(m.Status))
	w.String(m.Msg)
	return w.Buf
}

// AppendFrame appends m's complete frame encoding (length prefix, body,
// CRC) to dst and returns the extended slice. It fails on a zero channel
// (reserved) and on frames that would exceed MaxFrame.
func AppendFrame(dst []byte, m Message) ([]byte, error) {
	if m.ChannelID() == 0 {
		return dst, errors.New("wireproto: channel 0 is reserved")
	}
	w := codec.Writer{Buf: append(dst, 0, 0, 0, 0)} // length placeholder
	start := len(w.Buf)
	w.U8(byte(m.Type()))
	w.Uvarint(m.ChannelID())
	w.Buf = m.appendPayload(w.Buf)
	w.Buf = binary.BigEndian.AppendUint32(w.Buf, crc32.ChecksumIEEE(w.Buf[start:]))
	bodyLen := len(w.Buf) - start
	if bodyLen > MaxFrame {
		return dst, fmt.Errorf("wireproto: frame of %d bytes exceeds MaxFrame", bodyLen)
	}
	binary.BigEndian.PutUint32(w.Buf[start-4:start], uint32(bodyLen))
	return w.Buf, nil
}

// ReadFrame reads and decodes one frame of at most MaxFrame bytes from r. It
// returns io.EOF only on a clean end before any byte of a frame; every other
// failure — truncation mid-frame, oversized length, CRC mismatch, malformed
// payload — wraps ErrBadFrame (except transport errors from r itself, which
// pass through).
func ReadFrame(r io.Reader) (Message, error) { return readFrame(r, MaxFrame) }

// ReadRequestFrame is ReadFrame for servers reading their clients' frames:
// it rejects bodies above MaxRequestFrame before reading them.
func ReadRequestFrame(r io.Reader) (Message, error) { return readFrame(r, MaxRequestFrame) }

func readFrame(r io.Reader, maxBody uint32) (Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, badFrame("truncated length prefix")
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < minFrame || n > maxBody {
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
	r := codec.NewReader(payload, ErrBadFrame)
	t := FrameType(r.U8())
	ch := r.Uvarint()
	if ch == 0 {
		r.Fail("channel 0 is reserved")
	}
	var m Message
	switch t {
	case TypeCreate:
		m = decodeCreate(&r, ch)
	case TypeQuestion:
		m = decodeQuestion(&r, ch)
	case TypeAnswer:
		m = decodeAnswer(&r, ch)
	case TypeBatchAnswer:
		m = decodeBatchAnswer(&r, ch)
	case TypeResult:
		if r.Len() == 0 {
			m = &ResultRequest{Channel: ch}
		} else {
			m = decodeResult(&r, ch)
		}
	case TypeError:
		m = &Error{Channel: ch, Status: num(&r), Msg: r.String()}
	default:
		r.Fail("unknown frame type %d", t)
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return m, nil
}

// num decodes a non-negative integer bounded so it can never overflow an
// int32: every numeric field here (counts, statuses, member indexes) is far
// below that.
func num(r *codec.Reader) int { return int(r.Uint(math.MaxInt32)) }

// Minimum encoded sizes of the counted list elements, which bound each
// count by the remaining input: one byte per string or number, plus the
// flag bytes, and the group fields when a subset flag promises them.
const (
	minMemberQuestion = 6 // member, flags, entity, confirm, questions, error
	minMemberAnswer   = 4 // member, answer, entity, confirm
	minMemberResult   = 9 // member, flags, target, candidates, 4 counters, error
)

// readStrings reads a counted string list (nil when empty, so
// encode→decode round-trips exactly).
func readStrings(r *codec.Reader) []string { return codec.List(r, 1, math.MaxInt32, r.String) }

func writeStrings(w *codec.Writer, list []string) {
	w.Uvarint(uint64(len(list)))
	for _, s := range list {
		w.String(s)
	}
}

func decodeCreate(r *codec.Reader, ch uint64) Message {
	flags := r.U8()
	m := &Create{
		Channel:    ch,
		Tree:       flags&createTree != 0,
		WantState:  flags&createWantState != 0,
		Batch:      flags&createBatch != 0,
		AttachID:   r.String(),
		Collection: r.String(),
	}
	m.Config = SessionConfig{
		Backtrack:    flags&createBacktrack != 0,
		Strategy:     r.String(),
		Metric:       r.String(),
		K:            num(r),
		Q:            num(r),
		MaxQuestions: num(r),
		BatchSize:    num(r),
	}
	m.Seeds = codec.List(r, 1, math.MaxInt32, func() []string { return readStrings(r) })
	if flags&createGroup != 0 {
		if m.Config.GroupStrategy = r.String(); m.Config.GroupStrategy == "" {
			r.Fail("group flag set but group strategy is empty")
		}
		m.Config.GroupConstraints = codec.List(r, 2, math.MaxInt32, func() [2]string { return [2]string{r.String(), r.String()} })
	}
	return m
}

func decodeQuestion(r *codec.Reader, ch uint64) Message {
	flags := r.U8()
	m := &Question{Channel: ch, Done: flags&questionDone != 0, ID: r.String()}
	m.Members = codec.List(r, minMemberQuestion, math.MaxInt32, func() MemberQuestion {
		mq := MemberQuestion{Member: num(r)}
		mf := r.U8()
		mq.Done = mf&memberDone != 0
		mq.Entity, mq.Confirm, mq.Questions, mq.Error = r.String(), r.String(), num(r), r.String()
		if mf&memberSubset != 0 {
			if mq.Semantics, mq.Subset = r.String(), readStrings(r); len(mq.Subset) == 0 {
				r.Fail("subset flag set but subset is empty")
			}
		}
		return mq
	})
	if flags&questionHasState != 0 {
		if m.State = r.Bytes(); len(m.State) == 0 {
			r.Fail("state flag set but state is empty")
		}
	}
	return m
}

func decodeAnswer(r *codec.Reader, ch uint64) Message {
	flags := r.U8()
	m := &Answer{
		Channel:   ch,
		WantState: flags&answerWantState != 0,
		Answer:    r.String(),
		Entity:    r.String(),
		Confirm:   r.String(),
	}
	if flags&answerSubset != 0 {
		if m.Semantics, m.Subset = r.String(), readStrings(r); len(m.Subset) == 0 {
			r.Fail("subset flag set but subset is empty")
		}
	}
	return m
}

func decodeBatchAnswer(r *codec.Reader, ch uint64) Message {
	flags := r.U8()
	m := &BatchAnswer{Channel: ch, WantState: flags&answerWantState != 0}
	group := flags&answerSubset != 0
	minBytes := minMemberAnswer
	if group {
		minBytes += 2 // semantics, subset
	}
	anySubset := false
	m.Answers = codec.List(r, minBytes, math.MaxInt32, func() MemberAnswer {
		a := MemberAnswer{Member: num(r), Answer: r.String(), Entity: r.String(), Confirm: r.String()}
		if group {
			a.Semantics, a.Subset = r.String(), readStrings(r)
			anySubset = anySubset || len(a.Subset) > 0
		}
		return a
	})
	// The encoder sets the flag only when some member asserts a subset;
	// rejecting the degenerate frame keeps encodings canonical (round-trip
	// byte identity, which the fuzz targets pin).
	if group && !anySubset {
		r.Fail("subset flag set but no member asserts a subset")
	}
	return m
}

func decodeResult(r *codec.Reader, ch uint64) Message {
	flags := r.U8()
	m := &Result{Channel: ch, Done: flags&questionDone != 0, ID: r.String()}
	m.Members = codec.List(r, minMemberResult, math.MaxInt32, func() MemberResult {
		mr := MemberResult{Member: num(r), Done: r.U8()&memberDone != 0, Target: r.String(), Candidates: readStrings(r)}
		mr.Questions, mr.Interactions, mr.Backtracks = num(r), num(r), num(r)
		mr.SelectionTimeUS = int64(r.Uint(math.MaxInt64))
		mr.Error = r.String()
		return mr
	})
	return m
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
