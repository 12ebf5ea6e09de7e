package codec

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

var errTest = errors.New("test: bad input")

func TestReaderRejections(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		read func(r *Reader)
	}{
		{"empty u8", nil, func(r *Reader) { r.U8() }},
		{"bad bool", []byte{2}, func(r *Reader) { r.Bool() }},
		{"truncated uvarint", []byte{0x80, 0x80}, func(r *Reader) { r.Uvarint() }},
		{"11-byte uvarint", bytes.Repeat([]byte{0x80}, 11), func(r *Reader) { r.Uvarint() }},
		{"overflowing uvarint", append(bytes.Repeat([]byte{0xff}, 9), 0x02), func(r *Reader) { r.Uvarint() }},
		{"uint above max", []byte{65}, func(r *Reader) { r.Uint(64) }},
		{"uint above int32", binaryUvarint(math.MaxInt32 + 1), func(r *Reader) { r.Uint(math.MaxInt32) }},
		{"count above remaining", []byte{3, 0, 0}, func(r *Reader) { r.Count(1) }},
		{"count above remaining per element", []byte{3, 0, 0, 0, 0, 0, 0, 0}, func(r *Reader) { r.Count(3) }},
		{"string length bomb", append(binaryUvarint(1<<40), "abc"...), func(r *Reader) { _ = r.String() }},
		{"bytes length bomb", append(binaryUvarint(math.MaxUint64), "abc"...), func(r *Reader) { r.Bytes() }},
		{"string one past the end", []byte{4, 'a', 'b', 'c'}, func(r *Reader) { _ = r.String() }},
		{"truncated be64", []byte{1, 2, 3, 4, 5, 6, 7}, func(r *Reader) { r.BE64() }},
		{"truncated le32", []byte{1, 2, 3}, func(r *Reader) { r.LE32() }},
		{"bad magic", []byte("SDXX"), func(r *Reader) { r.Magic("SDSS") }},
		{"short magic", []byte("SD"), func(r *Reader) { r.Magic("SDSS") }},
		{"trailing bytes", []byte{1, 2}, func(r *Reader) { r.U8() }},
		{"list element fails", []byte{2, 1, 'a', 9}, func(r *Reader) { List(r, 1, 8, r.String) }},
		{"list above its limit", []byte{3, 0, 0, 0}, func(r *Reader) { List(r, 1, 2, r.String) }},
		{"caller failure", []byte{7}, func(r *Reader) {
			if r.U8() != 8 {
				r.Fail("want 8")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.data, errTest)
			tc.read(&r)
			err := r.End()
			if !errors.Is(err, errTest) {
				t.Fatalf("got %v, want an error wrapping the caller's sentinel", err)
			}
			if r.Len() != 0 {
				t.Errorf("%d bytes left after a failure", r.Len())
			}
		})
	}
}

func binaryUvarint(v uint64) []byte {
	var w Writer
	w.Uvarint(v)
	return w.Buf
}

func TestCountBoundsByElementSize(t *testing.T) {
	for _, tc := range []struct {
		count, remaining, minElemBytes int
		ok                             bool
	}{
		{0, 0, 1, true},
		{5, 5, 1, true},
		{6, 5, 1, false},
		{2, 8, 4, true},
		{3, 11, 4, false}, // 11/4 = 2 whole elements
		{3, 12, 4, true},
		{1, 26, 27, false},
		{1, 27, 27, true},
	} {
		w := Writer{}
		w.Uvarint(uint64(tc.count))
		w.Buf = append(w.Buf, make([]byte, tc.remaining)...)
		r := NewReader(w.Buf, errTest)
		n := r.Count(tc.minElemBytes)
		if ok := r.Err() == nil; ok != tc.ok {
			t.Errorf("count %d over %d bytes of ≥%d-byte elements: err %v, want ok=%v", tc.count, tc.remaining, tc.minElemBytes, r.Err(), tc.ok)
		} else if ok && n != tc.count {
			t.Errorf("count %d decoded as %d", tc.count, n)
		}
	}
}

// TestFailureIsSticky: the first failure is kept and every later read
// returns a zero value without consuming input.
func TestFailureIsSticky(t *testing.T) {
	r := NewReader([]byte{200, 1, 2, 3, 4, 5, 6, 7, 8}, errTest)
	if v := r.Uint(100); v != 0 {
		t.Fatalf("rejected Uint returned %d", v)
	}
	first := r.Err()
	if !errors.Is(first, errTest) {
		t.Fatalf("got %v, want the sentinel", first)
	}
	if r.U8() != 0 || r.Uvarint() != 0 || r.BE64() != 0 || r.String() != "" || r.Bytes() != nil || r.Count(1) != 0 {
		t.Error("reads after a failure returned data")
	}
	r.Fail("a later failure")
	if r.End() != first {
		t.Errorf("first failure %v replaced by %v", first, r.Err())
	}
}

// TestRoundTrip: everything the Writer appends the Reader reads back, and
// the Writer appends to the caller's buffer.
func TestRoundTrip(t *testing.T) {
	w := Writer{Buf: []byte("prefix")}
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.Uvarint(math.MaxUint64)
	w.String("héllo")
	w.Bytes([]byte{0, 1, 2})
	w.BE64(0x0102030405060708)
	w.LE32(0x0a0b0c0d)
	w.Uvarint(2)
	w.String("a")
	w.String("")

	if !bytes.HasPrefix(w.Buf, []byte("prefix")) {
		t.Fatal("Writer did not append to the caller's buffer")
	}
	r := NewReader(w.Buf, errTest)
	r.Magic("prefix")
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool mismatch")
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.String(); got != "héllo" {
		t.Errorf("String = %q", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{0, 1, 2}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := r.BE64(); got != 0x0102030405060708 {
		t.Errorf("BE64 = %#x", got)
	}
	if got := r.LE32(); got != 0x0a0b0c0d {
		t.Errorf("LE32 = %#x", got)
	}
	if got := List(&r, 1, 2, r.String); len(got) != 2 || got[0] != "a" || got[1] != "" {
		t.Errorf("List = %q", got)
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
}

// TestListAllocatesWhatArrives: a list whose count is plausible but whose
// elements are garbage allocates for the elements decoded, not the count.
func TestListAllocatesWhatArrives(t *testing.T) {
	const n = 1 << 16
	w := Writer{}
	w.Uvarint(n)
	w.Buf = append(w.Buf, bytes.Repeat([]byte{0xff}, n)...)
	allocs := testing.AllocsPerRun(10, func() {
		r := NewReader(w.Buf, errTest)
		if got := List(&r, 1, n, r.String); r.Err() == nil {
			t.Fatalf("garbage list decoded to %d elements", len(got))
		}
	})
	if allocs > 10 { // the error message, not the list
		t.Errorf("failed list decode cost %.0f allocations", allocs)
	}
	if got := List(&Reader{}, 1, 1, func() int { return 1 }); got != nil {
		t.Errorf("empty input decoded to %v, want nil", got)
	}
}

// TestListChecksLimitFirst: a count above the list's limit fails before any
// element is decoded, however well-formed the elements are.
func TestListChecksLimitFirst(t *testing.T) {
	w := Writer{}
	w.Uvarint(5)
	w.Buf = append(w.Buf, make([]byte, 5)...)
	r := NewReader(w.Buf, errTest)
	calls := 0
	got := List(&r, 1, 4, func() string { calls++; return r.String() })
	if !errors.Is(r.Err(), errTest) || got != nil || calls != 0 {
		t.Fatalf("List over its limit: err %v, %d elements, %d reads", r.Err(), len(got), calls)
	}
	r = NewReader(w.Buf, errTest)
	if got := List(&r, 1, 5, r.String); len(got) != 5 || r.End() != nil {
		t.Fatalf("List at its limit: %d elements, err %v", len(got), r.Err())
	}
}

// TestReaderDoesNotAllocate: the primitives decode without allocating
// (strings excepted), so the kit adds nothing on the per-round path.
func TestReaderDoesNotAllocate(t *testing.T) {
	w := Writer{}
	w.U8(1)
	w.Uvarint(300)
	w.Bytes([]byte("state"))
	w.BE64(42)
	w.Uvarint(0)
	allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(w.Buf, errTest)
		r.U8()
		r.Uint(1000)
		r.Bytes()
		r.BE64()
		r.Count(1)
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
	})
	if allocs != 0 {
		t.Errorf("primitive reads allocated %.0f times", allocs)
	}
}
