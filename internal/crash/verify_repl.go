package crash

import (
	"bytes"
	"fmt"
	"time"

	"cadcam"
	"cadcam/internal/model"
	"cadcam/internal/oplog"
	"cadcam/internal/paperschema"
	"cadcam/internal/repl"
	"cadcam/internal/version"
	"cadcam/internal/wal"
)

// VerifyReplication is the primary/follower divergence oracle, run by
// the driver on the directory a replication round leaves behind (after
// the standard Verify accepted it).
//
// It replays the directory through real followers twice:
//
//  1. Full: a fresh follower must apply the entire surviving chain —
//     resyncing from the newest checkpoint manifest when the journal
//     below it was garbage-collected, exactly the path a follower that
//     was killed mid-stream takes on restart — and export a state
//     byte-identical to the model oracle's full serial replay.
//  2. Truncated: a follower paused after roughly half the records must
//     export a state byte-identical to the oracle's serial replay
//     truncated at the follower's applied sequence. Replication being
//     batch-atomic, the applied sequence always lands on a sealed batch
//     boundary — any other stopping point is a torn batch bug.
func VerifyReplication(dir string, opts VerifyOptions) error {
	cat := paperschema.MustGates()
	ss, err := cadcam.ScanJournal(dir)
	if err != nil {
		return fmt.Errorf("crash: repl verify: scan journal: %w", err)
	}
	records := ss.Records
	total := uint64(len(records))

	// oracle replays the first n chain records on top of the checkpoint
	// state — the same base a resynced follower starts from.
	oracle := func(n uint64) ([]byte, error) {
		m := model.New(cat)
		vs := &version.ManagerState{}
		if ss.Store != nil {
			if err := m.Load(ss.Store); err != nil {
				return nil, fmt.Errorf("crash: repl verify: load checkpoint into model: %w", err)
			}
			vs = ss.Versions
		}
		if opts.Unbind {
			m.SetPolicy(cadcam.DeleteUnbind)
		}
		var names oplog.Decoder
		for i := uint64(0); i < n; i++ {
			op, err := names.Decode(records[i])
			if err != nil {
				return nil, fmt.Errorf("crash: repl verify: record %d decode: %w", i, err)
			}
			if op == nil {
				continue // a format or name record
			}
			if err := m.Apply(op); err != nil {
				return nil, fmt.Errorf("crash: repl verify: record %d: model replay: %w", i, err)
			}
		}
		return wal.EncodeSnapshot(m.Export(), vs), nil
	}

	check := func(label string, pause uint64) error {
		policy := cadcam.DeleteRestrict
		if opts.Unbind {
			policy = cadcam.DeleteUnbind
		}
		shipper := repl.NewShipper(dir, repl.ShipperConfig{})
		f, err := repl.NewFollower(repl.FollowerConfig{
			Catalog:      cat,
			Dial:         shipper.Dialer(),
			DeletePolicy: policy,
			PauseAfter:   pause,
		})
		if err != nil {
			return fmt.Errorf("crash: repl verify (%s): %w", label, err)
		}
		defer f.Close()
		if pause == 0 {
			if err := f.WaitCaughtUp(30 * time.Second); err != nil {
				return fmt.Errorf("crash: repl verify (%s): %w", label, err)
			}
		} else {
			deadline := time.Now().Add(30 * time.Second)
			for f.Applied() < pause && f.Applied() < total {
				if time.Now().After(deadline) {
					return fmt.Errorf("crash: repl verify (%s): follower stalled at %d/%d (stats %+v)",
						label, f.Applied(), total, f.Stats())
				}
				time.Sleep(time.Millisecond)
			}
		}
		st, vs, applied := f.Export()
		if pause == 0 && applied != total {
			return fmt.Errorf("crash: repl verify (%s): follower applied %d of %d chain records (stats %+v)",
				label, applied, total, f.Stats())
		}
		if applied > total {
			return fmt.Errorf("crash: repl verify (%s): follower applied %d records, chain has %d",
				label, applied, total)
		}
		got := wal.EncodeSnapshot(st, vs)
		want, err := oracle(applied)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			return fmt.Errorf("crash: repl verify (%s): replica diverged from oracle truncated at seq %d/%d: %d vs %d bytes, first difference at offset %d (stats %+v)",
				label, applied, total, len(got), len(want), i, f.Stats())
		}
		return nil
	}

	if err := check("full", 0); err != nil {
		return err
	}
	if total >= 2 {
		if err := check("truncated", total/2); err != nil {
			return err
		}
	}
	return nil
}
