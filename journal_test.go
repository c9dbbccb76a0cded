package cadcam

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cadcam/internal/oplog"
	"cadcam/internal/paperschema"
	"cadcam/internal/storage"
	"cadcam/internal/wal"
)

// TestJournalAcrossReopen: each log handle numbers its journal names
// afresh, so one file holds several name tables. The first handle uses
// the interface's names first, the second (opened over a torn tail) the
// implementation's, so the same indices name different strings in one
// file. Recovery and a follower that tails across both handles must
// still read every record right.
func TestJournalAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	want := map[Surrogate]map[string]Value{}
	set := func(db *Database, sur Surrogate, attr string, v Value) {
		t.Helper()
		if err := db.SetAttr(sur, attr, v); err != nil {
			t.Fatal(err)
		}
		if want[sur] == nil {
			want[sur] = map[string]Value{}
		}
		want[sur][attr] = v
	}
	check := func(db *Database) {
		t.Helper()
		for sur, attrs := range want {
			for attr, v := range attrs {
				if got, err := db.GetAttr(sur, attr); err != nil || !got.Equal(v) {
					t.Fatalf("%s.%s = %v, %v; want %v", sur, attr, got, err, v)
				}
			}
		}
	}

	db := diskDB(t, dir)
	f, err := OpenFollower(paperschema.MustGates(), dir, FollowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	caughtUp := func(db *Database) {
		t.Helper()
		if err := f.WaitCaughtUp(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		st, vs, _ := f.Repl().Export()
		got := wal.EncodeSnapshot(st, vs)
		if want := wal.EncodeSnapshot(db.Store().Export(), db.Versions().Export()); !bytes.Equal(got, want) {
			t.Fatalf("follower export (%d bytes) differs from the primary's (%d bytes)", len(got), len(want))
		}
	}

	// Handle 1: GateInterface and Length take the first indices.
	var ifaces []Surrogate
	for i := 0; i < 4; i++ {
		sur, err := db.NewObject(paperschema.TypeGateInterface, "")
		if err != nil {
			t.Fatal(err)
		}
		set(db, sur, "Length", Int(int64(i)))
		ifaces = append(ifaces, sur)
	}
	caughtUp(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash tore the next batch: a whole handle's first frame (format,
	// name and op records) cut three bytes short.
	walPath := filepath.Join(dir, WALFilename(0))
	log, _, err := storage.OpenLog(walPath)
	if err != nil {
		t.Fatal(err)
	}
	torn := new(oplog.Encoder).EncodeBatch([]*oplog.Op{
		{Kind: oplog.KindSetAttr, Sur: ifaces[0], Name: "Width", Value: Int(99), Seq: 1 << 20},
	})
	if err := log.AppendBatch(torn, true); err != nil {
		t.Fatal(err)
	}
	size := log.Size()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, size-3); err != nil {
		t.Fatal(err)
	}

	// Handle 2: GateImplementation, its class, the relationship and
	// TimeBehavior come first, so index 0 and 1 now name other strings;
	// Length follows under a new index.
	db = diskDB(t, dir)
	for i, iface := range ifaces {
		impl, err := db.NewObject(paperschema.TypeGateImplementation, "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Bind(paperschema.RelAllOfGateInterface, impl, iface); err != nil {
			t.Fatal(err)
		}
		set(db, impl, "TimeBehavior", Int(int64(10+i)))
		set(db, iface, "Length", Int(int64(20+i)))
		want[impl]["Length"] = Int(int64(20 + i)) // inherited
	}
	check(db)
	caughtUp(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Handle 3 reads both handles' records back and appends its own.
	db = diskDB(t, dir)
	defer db.Close()
	if v, _ := db.GetAttr(ifaces[0], "Width"); !v.Equal(NullValue) {
		t.Fatalf("torn batch replayed: Width = %v", v)
	}
	check(db)
	set(db, ifaces[1], "Width", Int(7))
	caughtUp(db)
	if st := f.Stats(); st.CorruptFrames != 0 || st.Resyncs != 0 {
		t.Fatalf("follower stats %+v: it should tail both handles without a resync", st)
	}
}

// TestOldJournalRefused: a directory whose journal was written in a
// previous format must not open: Open fails with ErrJournalFormat and
// leaves every file as it was, even a torn tail recovery would otherwise
// truncate. Each fixture was written by the release before its format
// changed. testdata/v1-journal (every field of every op, names spelled
// out, no format record) holds a class, interfaces, an implementation
// bound to one, and attribute writes; testdata/v2-journal (format record
// 2, each Seq in full, fixed 8-byte frame headers, which recovery must
// recognise before the varint layout misreads them) and
// testdata/v3-journal (format record 3, a Seq delta in every op and
// every surrogate in full, in varint frame headers) hold interfaces with
// their Length, and implementations bound to them with their
// TimeBehavior.
func TestOldJournalRefused(t *testing.T) {
	for _, fixture := range []string{"v1-journal", "v2-journal", "v3-journal"} {
		t.Run(fixture, func(t *testing.T) {
			old, err := os.ReadFile(filepath.Join("testdata", fixture, WALFilename(0)))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			// A torn frame header at the tail, as a crash leaves it.
			journal := append(append([]byte(nil), old...), 0x40, 0, 0, 0, 1, 2)
			walPath := filepath.Join(dir, WALFilename(0))
			if err := os.WriteFile(walPath, journal, 0o644); err != nil {
				t.Fatal(err)
			}

			for _, open := range []func() error{
				func() error {
					db, err := Open(paperschema.MustGates(), Options{Dir: dir})
					if err == nil {
						db.Close()
					}
					return err
				},
				func() error { _, err := ScanJournal(dir); return err },
			} {
				if err := open(); !errors.Is(err, ErrJournalFormat) {
					t.Fatalf("open of a previous-format journal: %v, want ErrJournalFormat", err)
				}
				ents, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				if len(ents) != 1 || ents[0].Name() != WALFilename(0) {
					t.Fatalf("directory after the refused open: %v", ents)
				}
				if got, err := os.ReadFile(walPath); err != nil || !bytes.Equal(got, journal) {
					t.Fatalf("journal changed by the refused open (%d bytes, was %d): %v", len(got), len(journal), err)
				}
			}
		})
	}
}
