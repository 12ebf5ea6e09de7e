// Package decoderbounds holds the decoderbounds fixtures: the PR 5
// fuzz-found class where a decoded count sizes an allocation or bounds a
// loop before anything compares it to the remaining input.
package decoderbounds

import (
	"encoding/binary"

	"setdiscovery/internal/codec"
)

// --- allocation sites ---------------------------------------------------

func decodeUnbounded(data []byte) []uint64 {
	n, _ := binary.Uvarint(data)
	return make([]uint64, n) // want `allocation size derives from decoded input`
}

func decodeBounded(data []byte) ([]uint64, bool) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, false
	}
	data = data[k:]
	if n > uint64(len(data)/8) {
		return nil, false
	}
	out := make([]uint64, 0, n)
	for len(data) >= 8 {
		out = append(out, binary.LittleEndian.Uint64(data))
		data = data[8:]
	}
	return out, true
}

func mapAlloc(data []byte) map[uint64]bool {
	n, _ := binary.Uvarint(data)
	return make(map[uint64]bool, n) // want `allocation size derives from decoded input`
}

func markedBounded(data []byte) []uint64 {
	n, _ := binary.Uvarint(data)
	return make([]uint64, n) // lint:bounded — caller feeds trusted fixture bytes only
}

// taint is per copy: bounding a copy does not bless the original.
func copyTaintLeak(data []byte) ([]byte, []byte) {
	n, _ := binary.Uvarint(data)
	capN := n
	if capN > 64 {
		capN = 64
	}
	a := make([]byte, capN)
	b := make([]byte, n) // want `allocation size derives from decoded input`
	return a, b
}

func clamped(data []byte) []byte {
	n, _ := binary.Uvarint(data)
	return make([]byte, min(n, 64)) // min() is a bound by construction
}

// --- loop bounds --------------------------------------------------------

func accumulate(data []byte) uint64 {
	n, _ := binary.Uvarint(data)
	var sum uint64
	for i := uint64(0); i < n; i++ { // want `loop bound derives from decoded input`
		sum += i
	}
	return sum
}

// A read-per-iteration loop fails fast on truncated input; the decoded
// bound is harmless.
func readPerIteration(data []byte) ([]uint16, bool) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, false
	}
	data = data[k:]
	var out []uint16
	for i := uint64(0); i < n; i++ {
		if len(data) < 2 {
			return nil, false
		}
		out = append(out, binary.LittleEndian.Uint16(data))
		data = data[2:]
	}
	return out, true
}

// --- taint through same-package helpers ---------------------------------

type reader struct{ data []byte }

// uvarint returns the raw decoded value: still tainted.
func (r *reader) uvarint() uint64 {
	v, k := binary.Uvarint(r.data)
	if k <= 0 {
		return 0
	}
	r.data = r.data[k:]
	return v
}

// count bounds the value against the remaining input: clean.
func (r *reader) count() (int, bool) {
	v := r.uvarint()
	if v > uint64(len(r.data)) {
		return 0, false
	}
	return int(v), true
}

func viaHelper(r *reader) []uint32 {
	n := r.uvarint()
	return make([]uint32, n) // want `allocation size derives from decoded input`
}

func viaCount(r *reader) []uint32 {
	n, ok := r.count()
	if !ok {
		return nil
	}
	return make([]uint32, n)
}

// --- the binary codec kit ----------------------------------------------

// The kit's raw reads are taint seeds from another package.
func kitUvarint(r *codec.Reader) []uint32 {
	return make([]uint32, r.Uvarint()) // want `allocation size derives from decoded input`
}

func kitWord(r *codec.Reader) []byte {
	n := r.BE64()
	return make([]byte, n) // want `allocation size derives from decoded input`
}

func kitChecksumLoop(r *codec.Reader) uint64 {
	var sum uint64
	for i := uint32(0); i < r.LE32(); i++ { // want `loop bound derives from decoded input`
		sum += uint64(i)
	}
	return sum
}

// Count and Uint(max) return values the kit has already bounded.
func kitCount(r *codec.Reader) []uint32 {
	return make([]uint32, r.Count(1))
}

func kitUint(r *codec.Reader) []uint32 {
	return make([]uint32, r.Uint(64))
}

func kitCheckedRaw(r *codec.Reader, remaining int) []uint32 {
	n := r.Uvarint()
	if n > uint64(remaining) {
		return nil
	}
	return make([]uint32, n)
}
