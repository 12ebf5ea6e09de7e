package router

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// goldenDir holds the cross-codec golden corpus: encodings written by an
// earlier release that every later one must reproduce byte for byte.
var goldenDir = filepath.Join("..", "..", "testdata", "codec-golden")

// goldenLogs are the fixed inputs of the router-log part of the corpus: a
// journal holding every record type, and the compacted snapshot it replays
// to.
func goldenLogs() map[string][]byte {
	journal := append(append([]byte{}, logMagic[:]...), logVersion)
	for _, r := range testRecords() {
		journal = append(journal, encodeRecord(r)...)
	}
	return map[string][]byte{
		"router-log.bin":          journal,
		"router-log-snapshot.bin": encodeLogSnapshot(wantState()),
	}
}

// TestCodecGolden pins the router-log encoding to the golden corpus: the
// fixed inputs encode to the golden bytes, and every golden replays in full
// to the expected state, which compacts to the golden snapshot.
func TestCodecGolden(t *testing.T) {
	snapshot, err := os.ReadFile(filepath.Join(goldenDir, "router-log-snapshot.bin"))
	if err != nil {
		t.Fatal(err)
	}
	for name, enc := range goldenLogs() {
		t.Run(name, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join(goldenDir, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, golden) {
				t.Errorf("encoding differs from the golden:\n got %x\nwant %x", enc, golden)
			}
			st, valid, err := decodeLogState(golden)
			if err != nil {
				t.Fatal(err)
			}
			if valid != len(golden) {
				t.Errorf("valid prefix %d of %d bytes", valid, len(golden))
			}
			if want := wantState(); !reflect.DeepEqual(st, want) {
				t.Errorf("replayed state %+v, want %+v", st, want)
			}
			if again := encodeLogSnapshot(st); !bytes.Equal(again, snapshot) {
				t.Errorf("replay→compaction differs from the golden snapshot:\n got %x\nwant %x", again, snapshot)
			}
		})
	}
}
