package cadcam

// At-rest corruption: a checkpoint file damaged while the database was
// closed. Open must refuse with ErrCheckpointUnreadable and leave the
// directory exactly as it found it, never recover an empty store and
// garbage-collect the damaged history.

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cadcam/internal/codec"
	"cadcam/internal/paperschema"
	"cadcam/internal/storage"
)

// threeCheckpoints builds the gate scene and commits three checkpoints,
// each after a write, then closes the database.
func threeCheckpoints(t *testing.T, dir string) {
	t.Helper()
	db := diskDB(t, dir)
	_, iface, _ := buildGateScene(t, db)
	for i := 0; i < 3; i++ {
		if err := db.SetAttr(iface, "Width", Int(int64(i+1))); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// dirListing maps every file name in dir to its contents.
func dirListing(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// firstFile returns the path of the lexically first file matching pattern.
func firstFile(t *testing.T, dir, pattern string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no %s in %s: %v", pattern, dir, err)
	}
	sort.Strings(matches)
	return matches[0]
}

// TestOpenUnreadableCheckpoint damages the newest (and only) checkpoint
// in three ways. In each, Open returns ErrCheckpointUnreadable and the
// directory — names and contents — is unchanged.
func TestOpenUnreadableCheckpoint(t *testing.T) {
	cases := []struct {
		name   string
		damage func(t *testing.T, dir string)
	}{
		{"flipped segment byte", func(t *testing.T, dir string) {
			path := firstFile(t, dir, "seg-*.seg")
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)-1] ^= 0xFF
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"unsupported segment version", func(t *testing.T, dir string) {
			// A valid CRC frame around a payload of segment version 1,
			// the format before the string table.
			path := firstFile(t, dir, "seg-*.seg")
			payload, err := storage.ReadSnapshot(path)
			if err != nil {
				t.Fatal(err)
			}
			r := codec.NewReader(payload)
			r.Uvarint() // magic
			payload[len(payload)-r.Rest()] = 1
			if err := storage.WriteSnapshot(path, payload); err != nil {
				t.Fatal(err)
			}
		}},
		{"manifest removed", func(t *testing.T, dir string) {
			if err := os.Remove(firstFile(t, dir, "manifest-*.mf")); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			threeCheckpoints(t, dir)
			c.damage(t, dir)
			openRefused(t, dir)
		})
	}
}

// openRefused checks that Open of dir fails with ErrCheckpointUnreadable
// and leaves the directory, names and contents, as it was. It returns
// the error.
func openRefused(t *testing.T, dir string) error {
	t.Helper()
	before := dirListing(t, dir)
	db, err := Open(paperschema.MustGates(), Options{Dir: dir})
	if err == nil {
		db.Close()
		t.Fatal("Open succeeded on a directory with an unreadable checkpoint")
	}
	if !errors.Is(err, ErrCheckpointUnreadable) {
		t.Fatalf("Open error = %v, want ErrCheckpointUnreadable", err)
	}
	after := dirListing(t, dir)
	if len(after) != len(before) {
		t.Fatalf("Open changed the directory: %d files before, %d after", len(before), len(after))
	}
	for name, b := range before {
		if after[name] != b {
			t.Errorf("Open changed or removed %s", name)
		}
	}
	return err
}

// TestOldCheckpointRefused: a directory whose checkpoint segments were
// written in the previous record format must not open. The fixture
// testdata/v2-checkpoint was written by the release before the delta and
// flag record layout (segment version 2): a class, two interfaces with
// their Length and Width, implementations bound to them with their
// TimeBehavior, a checkpoint, then one Width write in the journal. Open
// returns ErrCheckpointUnreadable and leaves every file byte-identical.
func TestOldCheckpointRefused(t *testing.T) {
	src := filepath.Join("testdata", "v2-checkpoint")
	dir := t.TempDir()
	for name, b := range dirListing(t, src) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := openRefused(t, dir); !strings.Contains(err.Error(), "unsupported segment version 2") {
		t.Fatalf("Open error = %v, want it to name segment version 2", err)
	}
}
