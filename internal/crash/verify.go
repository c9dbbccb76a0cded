package crash

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cadcam"
	"cadcam/internal/codec"
	"cadcam/internal/domain"
	"cadcam/internal/model"
	"cadcam/internal/oplog"
	"cadcam/internal/paperschema"
	"cadcam/internal/version"
	"cadcam/internal/wal"
)

// VerifyOptions tunes what Verify checks.
type VerifyOptions struct {
	// AckCheck requires every acknowledged operation to appear in the
	// journal. It must be off for rounds that checkpoint (checkpointed
	// ops leave the journal for the snapshot) and for tail-clip rounds
	// (clipping deliberately discards durable records).
	AckCheck bool
	// Unbind mirrors Config.Unbind: the delete policy the journal was
	// written under, which replay must reproduce.
	Unbind bool
}

// Verify checks a (possibly crash-interrupted) database directory for
// consistency three ways:
//
//  1. The surviving journal must replay cleanly into the model oracle —
//     every record individually applicable, creation surrogates and
//     sequence numbers deterministic.
//  2. Reopening the directory with the real recovery path must succeed,
//     pass the store's structural invariants, and produce a snapshot
//     byte-identical to the oracle's.
//  3. With AckCheck, every operation a writer observed as durable must
//     be present in the journal (multiset inclusion).
//
// Any failure is reported with enough context to reproduce from the
// workload seed.
func Verify(dir, ackDir string, opts VerifyOptions) error {
	cat := paperschema.MustGates()
	ss, err := cadcam.ScanJournal(dir)
	if err != nil {
		return fmt.Errorf("crash: scan journal: %w", err)
	}
	records := ss.Records

	m := model.New(cat)
	vs := &version.ManagerState{}
	if ss.Store != nil {
		if err := m.Load(ss.Store); err != nil {
			return fmt.Errorf("crash: load checkpoint into model: %w", err)
		}
		vs = ss.Versions
	}
	if opts.Unbind {
		m.SetPolicy(cadcam.DeleteUnbind)
	}

	journaled := make(map[string]int)
	var names oplog.Decoder
	for i, rec := range records {
		op, err := names.Decode(rec)
		if err != nil {
			return fmt.Errorf("crash: journal record %d/%d: decode: %w", i, len(records), err)
		}
		if op == nil {
			continue // a format or name record
		}
		journaled[AckKey(op)]++
		if err := m.Apply(op); err != nil {
			return fmt.Errorf("crash: journal record %d/%d (kind %d): model replay diverged: %w",
				i, len(records), op.Kind, err)
		}
	}

	cfg := Config{Dir: dir, Unbind: opts.Unbind}
	db, err := cadcam.Open(cat, cfg.Options())
	if err != nil {
		return fmt.Errorf("crash: reopen after crash: %w", err)
	}
	defer db.Close()

	if bad := db.Store().CheckInvariants(); len(bad) != 0 {
		return fmt.Errorf("crash: recovered store violates invariants:\n  %s",
			strings.Join(bad, "\n  "))
	}

	got := wal.EncodeSnapshot(db.Store().Export(), db.Versions().Export())
	want := wal.EncodeSnapshot(m.Export(), vs)
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		return fmt.Errorf("crash: recovered snapshot (%d bytes) differs from oracle (%d bytes) at offset %d after %d journal records",
			len(got), len(want), i, len(records))
	}

	if err := verifyReads(db, m); err != nil {
		return err
	}

	if opts.AckCheck {
		if err := verifyAcks(ackDir, journaled); err != nil {
			return err
		}
	}
	return nil
}

// verifyReads sweeps every live object and compares the real resolver
// (route caches, binding chain walks) against the oracle's brute-force
// resolution for every probe name the workload touches.
func verifyReads(db *cadcam.Database, m *model.Model) error {
	cat := db.Catalog()
	attrs := []string{"Length", "Width", "TimeBehavior", "SimSlot", "PinId", "InOut"}
	classes := []string{"Pins", "SubGates"}
	for _, sur := range db.Store().Surrogates() {
		tn, err := db.TypeOf(sur)
		if err != nil {
			return fmt.Errorf("crash: TypeOf(%s): %w", sur, err)
		}
		if _, isRel := cat.RelType(tn); isRel {
			continue
		}
		if _, isInher := cat.InherRelType(tn); isInher {
			continue
		}
		for _, name := range attrs {
			gv, gerr := db.GetAttr(sur, name)
			mv, merr := m.ResolveAttr(sur, name)
			if (gerr != nil) != (merr != nil) {
				return fmt.Errorf("crash: %s(%s).%s: store err %v, oracle err %v", tn, sur, name, gerr, merr)
			}
			if gerr == nil && !bytes.Equal(encVal(gv), encVal(mv)) {
				return fmt.Errorf("crash: %s(%s).%s: store %v, oracle %v", tn, sur, name, gv, mv)
			}
		}
		for _, name := range classes {
			gm, gerr := db.Members(sur, name)
			mm, merr := m.ResolveMembers(sur, name)
			if (gerr != nil) != (merr != nil) {
				return fmt.Errorf("crash: %s(%s).%s members: store err %v, oracle err %v", tn, sur, name, gerr, merr)
			}
			if gerr == nil && !equalSurs(gm, mm) {
				return fmt.Errorf("crash: %s(%s).%s members: store %v, oracle %v", tn, sur, name, gm, mm)
			}
		}
	}
	return nil
}

func encVal(v domain.Value) []byte {
	var b codec.Buf
	b.Value(v)
	return b.Bytes()
}

func equalSurs(a, b []domain.Surrogate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// verifyAcks checks multiset inclusion: no writer may have observed a
// durable success whose record the journal lost. A torn final line (the
// process died mid-append) is tolerated; torn interior lines are not.
func verifyAcks(ackDir string, journaled map[string]int) error {
	files, err := filepath.Glob(filepath.Join(ackDir, "ack-*.log"))
	if err != nil {
		return err
	}
	sort.Strings(files)
	acked := make(map[string]int)
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		// Complete entries end with '\n', so the final split element is
		// either the empty remainder or a torn final append (the process
		// died mid-write); both drop.
		lines := strings.Split(string(raw), "\n")
		if len(lines) > 0 {
			lines = lines[:len(lines)-1]
		}
		for i, line := range lines {
			if _, err := hex.DecodeString(line); err != nil {
				return fmt.Errorf("crash: %s line %d: corrupt ack entry: %w", f, i+1, err)
			}
			acked[line]++
		}
	}
	for key, n := range acked {
		if journaled[key] < n {
			op := "?"
			if b, err := hex.DecodeString(key); err == nil {
				if o, err := oplog.Decode(b); err == nil {
					op = fmt.Sprintf("kind=%d sur=%s name=%q out=%s", o.Kind, o.Sur, o.Name, o.Out)
				}
			}
			return fmt.Errorf("crash: lost durable write: op {%s} acked %d time(s) but journaled %d time(s)",
				op, n, journaled[key])
		}
	}
	return nil
}
