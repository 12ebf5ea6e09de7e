// Package codec is a minimal stand-in for the real
// setdiscovery/internal/codec, just large enough to type-check the analyzer
// fixtures. It shares the real package's import path (under the fixture
// source root) so decoderbounds recognises the kit's raw reads exactly as
// it does in production code.
package codec

type Reader struct{ data []byte }

func (r *Reader) Uvarint() uint64            { return 0 }
func (r *Reader) BE64() uint64               { return 0 }
func (r *Reader) LE32() uint32               { return 0 }
func (r *Reader) Uint(max uint64) uint64     { return 0 }
func (r *Reader) Count(minElemBytes int) int { return 0 }
