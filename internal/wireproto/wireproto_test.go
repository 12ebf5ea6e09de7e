package wireproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"setdiscovery/internal/codec"
)

// sampleMessages covers every frame type with populated and zero-ish
// variants.
func sampleMessages() []Message {
	return []Message{
		&Create{
			Channel:    1,
			Collection: "animals",
			WantState:  true,
			Seeds:      [][]string{{"cat", "dog"}},
			Config: SessionConfig{
				Strategy:     "klp",
				Metric:       "prob",
				K:            16,
				Q:            4,
				MaxQuestions: 100,
				Backtrack:    true,
			},
		},
		&Create{Channel: 7, AttachID: "sess-42", WantState: true},
		&Create{
			Channel:    2,
			Collection: "animals",
			Batch:      true,
			Tree:       true,
			Seeds:      [][]string{{"a"}, nil, {"b", "c"}},
			Config:     SessionConfig{BatchSize: 8},
		},
		&Question{
			Channel: 3,
			ID:      "sess-1",
			Members: []MemberQuestion{
				{Member: 0, Entity: "cat", Questions: 4},
				{Member: 1, Done: true, Questions: 9},
				{Member: 2, Confirm: "S001", Questions: 2, Error: "conflicting answer"},
			},
			State: []byte{1, 2, 3, 0, 255},
		},
		&Question{Channel: 9, ID: "b-1", Done: true},
		&Answer{Channel: 4, Answer: "yes", Entity: "cat", WantState: true},
		&Answer{Channel: 4, Answer: "no", Confirm: "S001"},
		&BatchAnswer{
			Channel: 5,
			Answers: []MemberAnswer{
				{Member: 0, Answer: "yes", Entity: "cat"},
				{Member: 3, Answer: "unknown", Confirm: "S001"},
			},
			WantState: true,
		},
		&BatchAnswer{Channel: 5},
		&ResultRequest{Channel: 6},
		&Result{
			Channel: 6,
			ID:      "sess-1",
			Done:    true,
			Members: []MemberResult{
				{
					Member:          0,
					Done:            true,
					Target:          "S003",
					Candidates:      []string{"S003"},
					Questions:       12,
					Interactions:    14,
					Backtracks:      1,
					SelectionTimeUS: 12345,
				},
				{Member: 1, Error: "contradictory answers"},
			},
		},
		&Result{Channel: 8, ID: "b-2"},
		&Error{Channel: 10, Status: 404, Msg: "unknown or expired session"},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		buf, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatalf("AppendFrame(%#v): %v", m, err)
		}
		got, err := ReadFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("ReadFrame(%#v): %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip mismatch:\n got %#v\nwant %#v", got, m)
		}
	}
}

func TestFrameStreamConcatenation(t *testing.T) {
	msgs := sampleMessages()
	var buf []byte
	var err error
	for _, m := range msgs {
		if buf, err = AppendFrame(buf, m); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf)
	for i, want := range msgs {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d mismatch: got %#v want %#v", i, got, want)
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("after last frame: got %v, want io.EOF", err)
	}
}

// TestReadFrameLengthBomb: a length prefix claiming MaxFrame, followed by
// nothing, must be rejected without the reader allocating anywhere near what
// the prefix claims.
func TestReadFrameLengthBomb(t *testing.T) {
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], MaxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(prefix[:]))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("length bomb: got %v, want ErrBadFrame", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("length bomb allocated %d bytes before failing, want < 1 MiB", alloc)
	}
}

// TestReadFrameGrowsLargeBodies: a body larger than the up-front chunk,
// delivered in small reads, still decodes whole.
func TestReadFrameGrowsLargeBodies(t *testing.T) {
	want := &Create{Channel: 3, Collection: strings.Repeat("x", 5*frameChunk+17)}
	buf, err := AppendFrame(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(iotest.HalfReader(bytes.NewReader(buf)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("large frame changed in the round trip")
	}
	if _, err := ReadFrame(bytes.NewReader(buf[:len(buf)-1])); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated large frame: got %v, want ErrBadFrame", err)
	}
}

func TestDecodeRejections(t *testing.T) {
	valid, err := AppendFrame(nil, &Answer{Channel: 1, Answer: "yes"})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated prefix", func(t *testing.T) {
		if _, err := ReadFrame(bytes.NewReader(valid[:2])); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("got %v, want ErrBadFrame", err)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		if _, err := ReadFrame(bytes.NewReader(valid[:len(valid)-2])); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("got %v, want ErrBadFrame", err)
		}
	})
	t.Run("crc mismatch", func(t *testing.T) {
		bad := bytes.Clone(valid)
		bad[5] ^= 0x40 // flip a payload bit, CRC now stale
		if _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("got %v, want ErrBadFrame", err)
		}
	})
	t.Run("oversized length", func(t *testing.T) {
		bad := bytes.Clone(valid)
		bad[0], bad[1], bad[2], bad[3] = 0xff, 0xff, 0xff, 0xff
		if _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("got %v, want ErrBadFrame", err)
		}
	})
	t.Run("unknown type", func(t *testing.T) {
		body := append([]byte{}, valid[4:len(valid)-4]...)
		body[0] = 99
		if _, err := DecodeFrame(reframe(body)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("got %v, want ErrBadFrame", err)
		}
	})
	t.Run("zero channel", func(t *testing.T) {
		body := append([]byte{}, valid[4:len(valid)-4]...)
		body[1] = 0
		if _, err := DecodeFrame(reframe(body)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("got %v, want ErrBadFrame", err)
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		body := append([]byte{}, valid[4:len(valid)-4]...)
		body = append(body, 0xAA)
		if _, err := DecodeFrame(reframe(body)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("got %v, want ErrBadFrame", err)
		}
	})
	t.Run("hostile count", func(t *testing.T) {
		// Batch-answer claiming 2^40 members in a tiny frame.
		w := codec.Writer{Buf: []byte{byte(TypeBatchAnswer), 1, 0}}
		w.Uvarint(1 << 40)
		if _, err := DecodeFrame(reframe(w.Buf)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("got %v, want ErrBadFrame", err)
		}
	})
	t.Run("empty state with flag", func(t *testing.T) {
		// Question with the hasState flag but a zero-length state blob.
		var w codec.Writer
		w.U8(byte(TypeQuestion))
		w.Uvarint(3)
		w.U8(questionHasState)
		w.String("id")
		w.Uvarint(0) // members
		w.Uvarint(0) // empty state
		if _, err := DecodeFrame(reframe(w.Buf)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("got %v, want ErrBadFrame", err)
		}
	})
	t.Run("zero channel encode", func(t *testing.T) {
		if _, err := AppendFrame(nil, &Answer{Channel: 0, Answer: "yes"}); err == nil {
			t.Fatal("AppendFrame accepted channel 0")
		}
	})
}

// TestDecodeHostileCounts: a counted list whose count equals the remaining
// body bytes must be rejected without allocating the list it claims. Each
// element would hold 16 to 120 bytes in memory, so a decoder that sizes the
// list by the count allocates many times the frame before it fails.
func TestDecodeHostileCounts(t *testing.T) {
	const bodyBytes = 1 << 20
	cases := []struct {
		name   string
		prefix func(w *codec.Writer)
	}{
		{"create seeds", func(w *codec.Writer) {
			w.U8(byte(TypeCreate))
			w.Uvarint(1)
			w.U8(0)                           // flags
			w.Buf = append(w.Buf, 0, 0, 0, 0) // attach, collection, strategy, metric
			w.Buf = append(w.Buf, 0, 0, 0, 0) // k, q, max questions, batch size
		}},
		{"question members", func(w *codec.Writer) {
			w.U8(byte(TypeQuestion))
			w.Uvarint(1)
			w.U8(0)
			w.String("s-1")
		}},
		{"batch-answer answers", func(w *codec.Writer) {
			w.U8(byte(TypeBatchAnswer))
			w.Uvarint(1)
			w.U8(0)
		}},
		{"result members", func(w *codec.Writer) {
			w.U8(byte(TypeResult))
			w.Uvarint(1)
			w.U8(0)
			w.String("s-1")
		}},
		{"result candidates", func(w *codec.Writer) {
			w.U8(byte(TypeResult))
			w.Uvarint(1)
			w.U8(0)
			w.String("s-1")
			w.Uvarint(1)                   // one member
			w.Buf = append(w.Buf, 0, 0, 0) // member, flags, target
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var w codec.Writer
			tc.prefix(&w)
			// The count claims one element per remaining byte, and the
			// remaining bytes are garbage.
			w.Uvarint(bodyBytes)
			w.Buf = append(w.Buf, bytes.Repeat([]byte{0xff}, bodyBytes)...)
			frame := reframe(w.Buf)

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := DecodeFrame(frame)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("got %v, want ErrBadFrame", err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= uint64(len(frame)) {
				t.Fatalf("decoding a %d-byte frame allocated %d bytes", len(frame), alloc)
			}
		})
	}
}

// TestReadRequestFrameBoundsDecode: well-formed lists of minimal elements
// decode to many times their encoding (an all-zero batch-answer member is 4
// bytes on the wire and a 96-byte MemberAnswer in memory), so the count
// bound alone does not cap what a client frame costs. ReadRequestFrame does:
// a frame at MaxRequestFrame decodes into tens of MiB, and a longer one is
// rejected before its body is read.
func TestReadRequestFrameBoundsDecode(t *testing.T) {
	cases := []struct {
		name    string
		minElem int
		prefix  func(w *codec.Writer)
	}{
		{"create seeds", 1, func(w *codec.Writer) {
			w.U8(byte(TypeCreate))
			w.Uvarint(1)
			w.U8(0)                           // flags
			w.Buf = append(w.Buf, 0, 0, 0, 0) // attach, collection, strategy, metric
			w.Buf = append(w.Buf, 0, 0, 0, 0) // k, q, max questions, batch size
		}},
		{"answer subset", 1, func(w *codec.Writer) {
			w.U8(byte(TypeAnswer))
			w.Uvarint(1)
			w.U8(answerSubset)
			w.Buf = append(w.Buf, 0, 0, 0, 0) // answer, entity, confirm, semantics
		}},
		{"batch-answer answers", minMemberAnswer, func(w *codec.Writer) {
			w.U8(byte(TypeBatchAnswer))
			w.Uvarint(1)
			w.U8(0)
		}},
		{"result members", minMemberResult, func(w *codec.Writer) {
			w.U8(byte(TypeResult))
			w.Uvarint(1)
			w.U8(0)
			w.String("s-1")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var w codec.Writer
			tc.prefix(&w)
			n := (MaxRequestFrame - len(w.Buf) - 4 - 4) / tc.minElem // count varint ≤ 4 bytes, CRC
			w.Uvarint(uint64(n))
			w.Buf = append(w.Buf, make([]byte, n*tc.minElem)...)
			body := reframe(w.Buf)
			frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
			frame = append(frame, body...)

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadRequestFrame(bytes.NewReader(frame))
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%d-byte request frame: %v", len(body), err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*MaxRequestFrame {
				t.Fatalf("decoding a %d-byte request frame allocated %d bytes", len(body), alloc)
			}

			binary.BigEndian.PutUint32(frame, MaxRequestFrame+1)
			runtime.ReadMemStats(&before)
			_, err = ReadRequestFrame(bytes.NewReader(frame))
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("oversized request frame: got %v, want ErrBadFrame", err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= frameChunk {
				t.Fatalf("rejecting an oversized request frame allocated %d bytes", alloc)
			}
		})
	}
}

// reframe wraps a raw body with a valid CRC (but no length prefix) for
// DecodeFrame tests.
func reframe(body []byte) []byte {
	out := bytes.Clone(body)
	c := crc32.ChecksumIEEE(out)
	return append(out, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
}

func TestPreface(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePreface(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ReadPreface(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ReadPreface(bytes.NewReader([]byte("HTTP/"))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad magic: got %v, want ErrBadFrame", err)
	}
	if err := ReadPreface(bytes.NewReader([]byte("SD"))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated: got %v, want ErrBadFrame", err)
	}
}

// TestClientMultiplex exercises the client against a minimal in-test frame
// server: two streams interleaved on one connection, plus an Error frame
// surfacing as *RemoteError.
func TestClientMultiplex(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if err := ReadPreface(conn); err != nil {
			return
		}
		for {
			m, err := ReadFrame(conn)
			if err != nil {
				return
			}
			var resp Message
			switch req := m.(type) {
			case *Create:
				if req.Collection == "missing" {
					resp = &Error{Channel: req.Channel, Status: 404, Msg: "no such collection"}
				} else {
					resp = &Question{Channel: req.Channel, ID: "sess-" + req.Collection,
						Members: []MemberQuestion{{Entity: "cat"}}}
				}
			case *Answer:
				resp = &Question{Channel: req.Channel, ID: "sess", Done: true,
					Members: []MemberQuestion{{Done: true, Questions: 1}}}
			case *ResultRequest:
				resp = &Result{Channel: req.Channel, ID: "sess", Done: true,
					Members: []MemberResult{{Done: true, Target: "S1", Questions: 1}}}
			default:
				resp = &Error{Channel: m.ChannelID(), Status: 400, Msg: "unexpected frame"}
			}
			buf, err := AppendFrame(nil, resp)
			if err != nil {
				return
			}
			if _, err := conn.Write(buf); err != nil {
				return
			}
		}
	}()

	c, err := Dial(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	s1 := c.OpenStream()
	s2 := c.OpenStream()
	if s1.Channel() == s2.Channel() {
		t.Fatal("streams share a channel")
	}

	q1, err := s1.Create(&Create{Collection: "a"}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if q1.ID != "sess-a" || q1.Members[0].Entity != "cat" {
		t.Fatalf("unexpected question: %#v", q1)
	}
	q2, err := s2.Create(&Create{Collection: "b"}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if q2.ID != "sess-b" {
		t.Fatalf("unexpected question: %#v", q2)
	}

	if _, err := s1.Answer(&Answer{Answer: "yes"}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := s1.Result(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Members[0].Target != "S1" {
		t.Fatalf("unexpected result: %#v", res)
	}

	s3 := c.OpenStream()
	_, err = s3.Create(&Create{Collection: "missing"}, 2*time.Second)
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != 404 {
		t.Fatalf("got %v, want *RemoteError with status 404", err)
	}

	if c.Err() != nil {
		t.Fatalf("healthy client reports error: %v", c.Err())
	}
	c.Close()
	if c.Err() == nil {
		t.Fatal("closed client reports no error")
	}
	if _, err := s2.Answer(&Answer{Answer: "yes"}, 2*time.Second); err == nil {
		t.Fatal("exchange on closed client succeeded")
	}
}
