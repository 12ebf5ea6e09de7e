package setdiscovery

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"setdiscovery/internal/discovery"
	"setdiscovery/internal/strategy"
)

// goldenDir holds the cross-codec golden corpus: encodings written by an
// earlier release that every later one must reproduce byte for byte.
var goldenDir = filepath.Join("testdata", "codec-golden")

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// snapshotGoldenCase is one envelope of the corpus: encode wraps a golden
// session state (see internal/discovery's corpus) in an envelope of the
// given configuration.
type snapshotGoldenCase struct {
	name   string
	encode func(t *testing.T, c *Collection) []byte
}

func goldenConfig(opts ...Option) config {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// wrapSession snapshots the session state in the named golden under cfg.
func wrapSession(state string, opts ...Option) func(t *testing.T, c *Collection) []byte {
	return func(t *testing.T, c *Collection) []byte {
		cfg := goldenConfig(opts...)
		o, err := c.engineOptions(cfg)
		if err != nil {
			t.Fatal(err)
		}
		core, err := discovery.DecodeSession(c.c, o, readGolden(t, state))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := (&Session{c: c, s: core, cfg: cfg}).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
}

// wrapBatch snapshots the batch state in the named golden under cfg.
func wrapBatch(state string, opts ...Option) func(t *testing.T, c *Collection) []byte {
	return func(t *testing.T, c *Collection) []byte {
		cfg := goldenConfig(opts...)
		o := discoveryOptions(cfg, nil)
		var f strategy.Factory
		if cfg.groupStrategy != "" {
			gf, err := c.groupFactory(cfg)
			if err != nil {
				t.Fatal(err)
			}
			o.Group = gf.New()
		} else {
			var err error
			if f, err = c.factory(cfg); err != nil {
				t.Fatal(err)
			}
		}
		core, err := discovery.DecodeBatch(c.c, f, o, readGolden(t, state))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := (&Batch{c: c, b: core, cfg: cfg}).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
}

// snapshotGoldenCases covers envelope versions 1 and 3 for each kind (tree
// sessions have no group mode, so no version 3), plus the version-1
// re-snapshot of the version-2 fixture.
func snapshotGoldenCases() []snapshotGoldenCase {
	return []snapshotGoldenCase{
		{"snapshot-v1-session", wrapSession("state-session-v1.bin", WithBacktracking())},
		{"snapshot-v1-session-confirm", wrapSession("state-session-v1-confirm.bin", WithBatchSize(2), WithBacktracking(), WithMaxQuestions(30))},
		{"snapshot-v1-tree", func(t *testing.T, c *Collection) []byte {
			tr, err := c.BuildTree()
			if err != nil {
				t.Fatal(err)
			}
			core, err := discovery.DecodeTreeSession(c.c, tr.t, readGolden(t, "state-tree.bin"))
			if err != nil {
				t.Fatal(err)
			}
			snap, err := (&Session{c: c, s: core, tree: tr}).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			return snap
		}},
		{"snapshot-v1-batch", wrapBatch("state-batch.bin", WithStrategy("KLP"), WithMetric(AverageDepth))},
		{"snapshot-v3-session", wrapSession("state-session-v2.bin", WithGroupStrategy("halving"), WithBacktracking(),
			WithGroupConstraint("h", "b"), WithGroupConstraint("i", "h"))},
		{"snapshot-v3-batch", wrapBatch("state-batch-v2.bin", WithGroupStrategy("halving"))},
		{"snapshot-v2-as-v1", func(t *testing.T, c *Collection) []byte {
			s, err := c.RestoreSession(readGolden(t, filepath.Join("..", "snapshot-v2-memo-delta.bin")))
			if err != nil {
				t.Fatal(err)
			}
			snap, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			return snap
		}},
	}
}

// restoreSnapshot restores any golden envelope and snapshots it again.
func restoreSnapshot(t *testing.T, c *Collection, data []byte) []byte {
	t.Helper()
	info, err := ReadSnapshotInfo(data)
	if err != nil {
		t.Fatal(err)
	}
	var snap []byte
	switch info.Kind {
	case SnapshotSession:
		s, err := c.RestoreSession(data)
		if err != nil {
			t.Fatal(err)
		}
		snap, err = s.Snapshot()
	case SnapshotTreeSession:
		tr, err := c.BuildTree()
		if err != nil {
			t.Fatal(err)
		}
		s, err := tr.RestoreSession(data)
		if err != nil {
			t.Fatal(err)
		}
		snap, err = s.Snapshot()
	case SnapshotBatch:
		b, err := c.RestoreBatch(data)
		if err != nil {
			t.Fatal(err)
		}
		snap, err = b.Snapshot()
	}
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestCodecGolden pins the snapshot envelope to the golden corpus: the
// fixed inputs encode to the golden bytes, and every golden envelope
// restores and snapshots to itself.
func TestCodecGolden(t *testing.T) {
	for _, tc := range snapshotGoldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			golden := readGolden(t, tc.name+".bin")
			if enc := tc.encode(t, paperCollection(t)); !bytes.Equal(enc, golden) {
				t.Errorf("encoding differs from the golden:\n got %x\nwant %x", enc, golden)
			}
			if again := restoreSnapshot(t, paperCollection(t), golden); !bytes.Equal(again, golden) {
				t.Errorf("restore→snapshot differs from the golden:\n got %x\nwant %x", again, golden)
			}
		})
	}
}
