package wireproto

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenDir holds the cross-codec golden corpus: encodings written by an
// earlier release that every later one must reproduce byte for byte.
var goldenDir = filepath.Join("..", "..", "testdata", "codec-golden")

// goldenFrames are the fixed inputs of the wire part of the corpus: every
// frame type, with and without the group, state and batch flags.
func goldenFrames() []struct {
	name string
	m    Message
} {
	cfg := SessionConfig{Strategy: "klp", Metric: "ad", K: 2, Q: 10, MaxQuestions: 20, BatchSize: 3, Backtrack: true}
	return []struct {
		name string
		m    Message
	}{
		{"create-plain", &Create{Channel: 1, Collection: "paper"}},
		{"create-seeded-state", &Create{Channel: 2, Collection: "paper", WantState: true, Seeds: [][]string{{"a", "b"}}, Config: cfg}},
		{"create-tree", &Create{Channel: 3, Collection: "paper", Tree: true}},
		{"create-batch", &Create{Channel: 4, Collection: "paper", Batch: true, WantState: true, Seeds: [][]string{{"a"}, nil, {"b", "h"}}, Config: SessionConfig{Strategy: "gaink", K: 3}}},
		{"create-attach", &Create{Channel: 5, AttachID: "s-0123456789abcdef", WantState: true}},
		{"create-group", &Create{Channel: 6, Collection: "paper", Seeds: [][]string{{"a"}}, Config: SessionConfig{GroupStrategy: "additive", GroupConstraints: [][2]string{{"h", "b"}, {"i", "h"}}}}},
		{"create-group-batch", &Create{Channel: 7, Collection: "paper", Batch: true, Seeds: [][]string{nil, nil}, Config: SessionConfig{GroupStrategy: "halving"}}},
		{"question-entity", &Question{Channel: 1, ID: "s-1", Members: []MemberQuestion{{Entity: "c", Questions: 1}}}},
		{"question-confirm-state", &Question{Channel: 2, ID: "s-2", Members: []MemberQuestion{{Confirm: "S5", Questions: 3}}, State: []byte("SDSS\x01\x01state")}},
		{"question-done", &Question{Channel: 3, ID: "s-3", Done: true, Members: []MemberQuestion{{Done: true, Questions: 4}}}},
		{"question-batch", &Question{Channel: 4, ID: "b-1", Members: []MemberQuestion{
			{Member: 0, Entity: "c", Questions: 2},
			{Member: 1, Done: true, Questions: 5},
			{Member: 2, Entity: "h", Questions: 2, Error: "answer asserts a different question"},
		}, State: []byte{0, 1, 2, 255}}},
		{"question-group", &Question{Channel: 6, ID: "s-6", Members: []MemberQuestion{{Subset: []string{"c", "d", "e"}, Semantics: "intersects", Questions: 1}}, State: []byte{3}}},
		{"question-group-batch", &Question{Channel: 7, ID: "b-2", Members: []MemberQuestion{
			{Member: 0, Subset: []string{"g"}, Semantics: "subset-of", Questions: 2},
			{Member: 1, Done: true, Questions: 3},
		}}},
		{"answer-entity", &Answer{Channel: 1, Answer: "no", Entity: "c"}},
		{"answer-confirm-state", &Answer{Channel: 2, Answer: "yes", Confirm: "S5", WantState: true}},
		{"answer-unknown", &Answer{Channel: 3, Answer: "unknown"}},
		{"answer-group", &Answer{Channel: 6, Answer: "yes", Subset: []string{"c", "d", "e"}, Semantics: "intersects", WantState: true}},
		{"batch-answer", &BatchAnswer{Channel: 4, Answers: []MemberAnswer{
			{Member: 0, Answer: "yes", Entity: "c"},
			{Member: 2, Answer: "no", Entity: "h"},
		}}},
		{"batch-answer-state", &BatchAnswer{Channel: 4, WantState: true, Answers: []MemberAnswer{{Member: 1, Answer: "no", Confirm: "S2"}}}},
		{"batch-answer-empty", &BatchAnswer{Channel: 4}},
		{"batch-answer-group", &BatchAnswer{Channel: 7, WantState: true, Answers: []MemberAnswer{
			{Member: 0, Answer: "no", Subset: []string{"g"}, Semantics: "subset-of"},
			{Member: 1, Answer: "yes", Entity: "b"},
		}}},
		{"result-request", &ResultRequest{Channel: 3}},
		{"result", &Result{Channel: 3, ID: "s-3", Done: true, Members: []MemberResult{{
			Done: true, Target: "S5", Candidates: []string{"S5"},
			Questions: 4, Interactions: 5, Backtracks: 1, SelectionTimeUS: 1234567,
		}}}},
		{"result-batch", &Result{Channel: 4, ID: "b-1", Members: []MemberResult{
			{Member: 0, Candidates: []string{"S1", "S3"}, Questions: 2, Interactions: 2, SelectionTimeUS: 99},
			{Member: 1, Done: true, Error: "contradictory answers", Questions: 6, Interactions: 6},
		}}},
		{"error", &Error{Channel: 9, Status: 409, Msg: "answer asserts a different question"}},
	}
}

// TestCodecGolden pins the frame encoding to the golden corpus: the fixed
// inputs encode to the golden bytes, and every golden frame decodes and
// re-encodes to itself.
func TestCodecGolden(t *testing.T) {
	for _, tc := range goldenFrames() {
		t.Run(tc.name, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join(goldenDir, "wire-"+tc.name+".bin"))
			if err != nil {
				t.Fatal(err)
			}
			enc, err := AppendFrame(nil, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, golden) {
				t.Errorf("encoding differs from the golden:\n got %x\nwant %x", enc, golden)
			}
			m, err := ReadFrame(bytes.NewReader(golden))
			if err != nil {
				t.Fatalf("decoding the golden: %v", err)
			}
			again, err := AppendFrame(nil, m)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, golden) {
				t.Errorf("decode→encode differs from the golden:\n got %x\nwant %x", again, golden)
			}
		})
	}
}
