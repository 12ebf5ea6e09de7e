package discovery

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"setdiscovery/internal/cache"
	"setdiscovery/internal/cost"
	"setdiscovery/internal/dataset"
	"setdiscovery/internal/grouptest"
	"setdiscovery/internal/strategy"
	"setdiscovery/internal/testutil"
	"setdiscovery/internal/tree"
)

// goldenDir holds the cross-codec golden corpus: encodings written by an
// earlier release that every later one must reproduce byte for byte.
var goldenDir = filepath.Join("..", "..", "testdata", "codec-golden")

// goldenCase is one corpus entry: encode builds the fixed input and encodes
// it; reencode decodes a golden and encodes the result again.
type goldenCase struct {
	name     string
	encode   func(t *testing.T) []byte
	reencode func(t *testing.T, golden []byte) []byte
}

// goldenFactory is the strategy the public API defaults to (k-LP, average
// depth, k = 2, q = 10), so the root package can wrap these states in
// envelopes of its default configuration.
func goldenFactory(t *testing.T) strategy.Factory {
	t.Helper()
	f, err := strategy.New("klp", cost.AD, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// pinSelectionTime replaces the measured selection time, the one
// nondeterministic field of a state, with a fixed value.
func pinSelectionTime(s *Session, ns int) *Session {
	s.res.SelectionTime = time.Duration(ns)
	return s
}

// answerEntity answers the pending entity or confirm question truthfully
// for target, or with override when it is not zero.
func answerEntity(t *testing.T, s *Session, target *dataset.Set, override Answer) {
	t.Helper()
	var a Answer
	if set, ok := s.PendingConfirm(); ok {
		a = No
		if set == target {
			a = Yes
		}
	} else {
		e, done := s.Next()
		if done {
			t.Fatal("session finished early")
		}
		a = TargetOracle{target}.Answer(e)
	}
	if override != 0 {
		a = override
	}
	if err := s.Answer(a); err != nil {
		t.Fatal(err)
	}
}

func answerSubset(t *testing.T, s *Session, target *dataset.Set) Answer {
	t.Helper()
	members, sem, ok := s.PendingSubset()
	if !ok {
		t.Fatal("no pending subset question")
	}
	return TargetOracle{target}.AnswerSubset(members, sem)
}

// stateGoldenCases covers session state versions 1 and 2, tree-session
// state and batch state (both versions), each suspended mid-discovery.
func stateGoldenCases() []goldenCase {
	c := testutil.PaperCollection()
	sets := c.Sets()
	s1, s4, s5 := sets[0], sets[3], sets[4]
	group := func() grouptest.Strategy { return grouptest.Halving{}.New() }
	session := func(t *testing.T, opts Options) *Session {
		t.Helper()
		s, err := NewSession(c, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	decodeSession := func(opts func(t *testing.T) Options) func(t *testing.T, golden []byte) []byte {
		return func(t *testing.T, golden []byte) []byte {
			s, err := DecodeSession(c, opts(t), golden)
			if err != nil {
				t.Fatal(err)
			}
			return s.EncodeState()
		}
	}
	backtrackOpts := func(t *testing.T) Options {
		return Options{Strategy: goldenFactory(t).New(), Backtrack: true}
	}
	batchOpts := func(t *testing.T) Options {
		return Options{Strategy: goldenFactory(t).New(), BatchSize: 2, ConfirmTarget: true, Backtrack: true}
	}
	groupBacktrackOpts := func(*testing.T) Options { return Options{Group: group(), Backtrack: true} }
	tr := func(t *testing.T) *tree.Tree {
		t.Helper()
		tr, err := tree.Build(c.All(), goldenFactory(t))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	return []goldenCase{
		{
			name: "state-session-v1",
			encode: func(t *testing.T) []byte {
				s := session(t, backtrackOpts(t))
				answerEntity(t, s, s4, 0)
				answerEntity(t, s, s4, Unknown)
				return pinSelectionTime(s, 123456789).EncodeState()
			},
			reencode: decodeSession(backtrackOpts),
		},
		{
			name: "state-session-v1-batch",
			encode: func(t *testing.T) []byte {
				s := session(t, batchOpts(t))
				answerEntity(t, s, s5, 0)
				return pinSelectionTime(s, 4242).EncodeState()
			},
			reencode: decodeSession(batchOpts),
		},
		{
			name: "state-session-v1-confirm",
			encode: func(t *testing.T) []byte {
				s := session(t, batchOpts(t))
				for i := 0; ; i++ {
					if _, ok := s.PendingConfirm(); ok {
						break
					}
					if s.Done() || i > 20 {
						t.Fatal("session never asked for confirmation")
					}
					answerEntity(t, s, s5, 0)
				}
				return pinSelectionTime(s, 77).EncodeState()
			},
			reencode: decodeSession(batchOpts),
		},
		{
			name: "state-session-v1-done",
			encode: func(t *testing.T) []byte {
				s := session(t, backtrackOpts(t))
				for !s.Done() {
					answerEntity(t, s, s5, 0)
				}
				return pinSelectionTime(s, 5).EncodeState()
			},
			reencode: decodeSession(backtrackOpts),
		},
		{
			name: "state-session-v2",
			encode: func(t *testing.T) []byte {
				s := session(t, groupBacktrackOpts(t))
				if err := s.Answer(answerSubset(t, s, s4)); err != nil {
					t.Fatal(err)
				}
				return pinSelectionTime(s, 31337).EncodeState()
			},
			reencode: decodeSession(groupBacktrackOpts),
		},
		{
			name: "state-tree",
			encode: func(t *testing.T) []byte {
				s := NewTreeSession(c, tr(t))
				for i := 0; i < 2; i++ {
					e, done := s.Next()
					if done {
						t.Fatal("tree walk finished early")
					}
					if err := s.Answer(TargetOracle{s5}.Answer(e)); err != nil {
						t.Fatal(err)
					}
				}
				s.res.SelectionTime = 2024
				return s.EncodeState()
			},
			reencode: func(t *testing.T, golden []byte) []byte {
				s, err := DecodeTreeSession(c, tr(t), golden)
				if err != nil {
					t.Fatal(err)
				}
				return s.EncodeState()
			},
		},
		{
			name: "state-batch",
			encode: func(t *testing.T) []byte {
				b, err := NewBatch(c, make([][]dataset.Entity, 3), goldenFactory(t), Options{})
				if err != nil {
					t.Fatal(err)
				}
				for i, target := range []*dataset.Set{s1, s4, s5} {
					e, _ := b.Member(i).Next()
					if err := b.Answer(i, TargetOracle{target}.Answer(e)); err != nil {
						t.Fatal(err)
					}
					pinSelectionTime(b.Member(i), 1000*(i+1))
				}
				b.EndRound()
				return b.EncodeState()
			},
			reencode: func(t *testing.T, golden []byte) []byte {
				b, err := DecodeBatch(c, goldenFactory(t), Options{}, golden)
				if err != nil {
					t.Fatal(err)
				}
				return b.EncodeState()
			},
		},
		{
			name: "state-batch-v2",
			encode: func(t *testing.T) []byte {
				b, err := NewBatch(c, make([][]dataset.Entity, 2), nil, Options{Group: group()})
				if err != nil {
					t.Fatal(err)
				}
				for i, target := range []*dataset.Set{s1, s5} {
					if err := b.Answer(i, answerSubset(t, b.Member(i), target)); err != nil {
						t.Fatal(err)
					}
					pinSelectionTime(b.Member(i), 10+i)
				}
				b.EndRound()
				return b.EncodeState()
			},
			reencode: func(t *testing.T, golden []byte) []byte {
				b, err := DecodeBatch(c, nil, Options{Group: group()}, golden)
				if err != nil {
					t.Fatal(err)
				}
				return b.EncodeState()
			},
		},
		{
			name: "shard-v2",
			encode: func(t *testing.T) []byte {
				return EncodeCacheShard(c, []CacheSection{
					{Strategy: "klp", Metric: cost.AD, K: 2, Q: 10, Entries: []strategy.CacheEntry{
						{Key: cache.Key{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210, Aux: 2}, Found: true, Entity: 7, Value: 1 << 40},
						{Key: cache.Key{Hi: 1, Lo: 2, Aux: 3}, Value: 0},
					}},
					{Strategy: "gaink", Metric: cost.H, K: 3, Entries: []strategy.CacheEntry{
						{Key: cache.Key{Hi: ^uint64(0), Lo: 0, Aux: 1 << 63}, Value: 0x3ff0000000000000},
					}},
					{Strategy: "klplve", Metric: cost.AD, K: 64, Q: 1 << 20},
				})
			},
			reencode: func(t *testing.T, golden []byte) []byte {
				sections, err := DecodeCacheShard(c, golden)
				if err != nil {
					t.Fatal(err)
				}
				return EncodeCacheShard(c, sections)
			},
		},
	}
}

// TestCodecGolden pins the session-state and cache-shard encodings to the
// golden corpus: the fixed inputs encode to the golden bytes, and every
// golden decodes and re-encodes to itself.
func TestCodecGolden(t *testing.T) {
	for _, tc := range stateGoldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join(goldenDir, tc.name+".bin"))
			if err != nil {
				t.Fatal(err)
			}
			if enc := tc.encode(t); !bytes.Equal(enc, golden) {
				t.Errorf("encoding differs from the golden:\n got %x\nwant %x", enc, golden)
			}
			if again := tc.reencode(t, golden); !bytes.Equal(again, golden) {
				t.Errorf("decode→encode differs from the golden:\n got %x\nwant %x", again, golden)
			}
		})
	}
}
