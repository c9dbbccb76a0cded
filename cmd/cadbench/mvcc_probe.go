package main

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cadcam"
	"cadcam/internal/bench"
	"cadcam/internal/object"
	"cadcam/internal/oplog"
	"cadcam/internal/paperschema"
	"cadcam/internal/version"
	"cadcam/internal/wal"
)

// mvccReport is the `mvcc` section of the JSON report: the cost of MVCC
// snapshot reads, the writer throughput kept while a continuous closure
// scan holds a pin, the sweeper's bookkeeping, and the determinism check
// (a pinned export must equal a serial replay of the journal truncated
// at the pin sequence).
type mvccReport struct {
	Pins        int64  `json:"pins"`         // live pins after the probes (must drain to 0)
	Taken       uint64 `json:"taken"`        // snapshots pinned across the scan probe
	GCRuns      uint64 `json:"gc_runs"`      // sweeps completed
	GCReclaimed uint64 `json:"gc_reclaimed"` // version nodes + dead objects freed
	// ExtraVersions is the non-head chain-node gauge after the last sweep
	// (0 = every slot back to a single live version).
	ExtraVersions uint64 `json:"extra_versions"`

	LiveReadNsPerOp     float64 `json:"live_read_ns_per_op"`
	SnapshotReadNsPerOp float64 `json:"snapshot_read_ns_per_op"`

	WriterNsPerOpBaseline float64 `json:"writer_ns_per_op_baseline"`
	WriterNsPerOpWithScan float64 `json:"writer_ns_per_op_with_scan"`
	// WriterOpsDuringScan counts writer operations completed while the
	// scanner held pins; ScansCompleted counts full-store closure scans.
	WriterOpsDuringScan int64 `json:"writer_ops_during_scan"`
	ScansCompleted      int64 `json:"scans_completed"`
	// ScanRatio = baseline ns/op ÷ with-scan ns/op: the fraction of
	// no-reader throughput writers keep under a continuous scan.
	ScanRatio float64 `json:"scan_ratio"`

	// ExportIdentical reports the MVCC determinism oracle: a snapshot
	// pinned mid-workload exported byte-identically to a serial replay of
	// the journal truncated at the pin sequence.
	ExportIdentical bool `json:"export_identical"`
}

func mvccProbes(report *jsonReport) error {
	rep := &mvccReport{}
	if err := mvccReadProbe(rep); err != nil {
		return err
	}
	if err := mvccScanProbe(rep); err != nil {
		return err
	}
	if err := mvccExportProbe(rep); err != nil {
		return err
	}
	report.MVCC = rep
	return nil
}

// mvccReadProbe compares a live inherited read with the same read through
// a pinned snapshot (the slow path: no route memoization at the pin).
func mvccReadProbe(rep *mvccReport) error {
	db, err := bench.Gates()
	if err != nil {
		return err
	}
	defer db.Close()
	iface, err := bench.Interface(db, 2, 1, 4, 2)
	if err != nil {
		return err
	}
	impl, err := db.NewObject(paperschema.TypeGateImplementation, "")
	if err != nil {
		return err
	}
	if _, err := db.Bind(paperschema.RelAllOfGateInterface, impl, iface); err != nil {
		return err
	}
	if _, err := db.GetAttr(impl, "Length"); err != nil { // warm the route
		return err
	}
	const n = 200000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := db.GetAttr(impl, "Length"); err != nil {
			return fmt.Errorf("probe mvcc live read: %w", err)
		}
	}
	rep.LiveReadNsPerOp = float64(time.Since(t0).Nanoseconds()) / float64(n)

	v := db.SnapshotView()
	defer v.Release()
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, err := v.GetAttr(impl, "Length"); err != nil {
			return fmt.Errorf("probe mvcc snapshot read: %w", err)
		}
	}
	rep.SnapshotReadNsPerOp = float64(time.Since(t0).Nanoseconds()) / float64(n)
	return nil
}

// mvccScanProbe measures 8-writer SetAttr latency with no readers, then
// with one continuous full-store closure scanner pinning snapshots, on
// the same database. Rounds alternate is unnecessary here: each side
// keeps its best of several rounds so transient load cannot fake a stall.
func mvccScanProbe(rep *mvccReport) error {
	db, err := bench.Gates()
	if err != nil {
		return err
	}
	defer db.Close()
	if _, err := bench.BuildFlipFlop(db, 8); err != nil {
		return err
	}
	const writers = 8
	pins := make([]cadcam.Surrogate, writers)
	for i := range pins {
		if pins[i], err = db.NewObject(paperschema.TypePin, ""); err != nil {
			return err
		}
	}

	var during atomic.Int64
	round := func(opsEach int, count bool) (float64, error) {
		errs := make(chan error, writers)
		t0 := time.Now()
		for w := 0; w < writers; w++ {
			go func(w int) {
				for i := 0; i < opsEach; i++ {
					if err := db.SetAttr(pins[w], "PinId", cadcam.Int(int64(i))); err != nil {
						errs <- err
						return
					}
				}
				if count {
					during.Add(int64(opsEach))
				}
				errs <- nil
			}(w)
		}
		for w := 0; w < writers; w++ {
			if err := <-errs; err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(writers*opsEach), nil
	}
	best := func(cur, v float64) float64 {
		if cur == 0 || v < cur {
			return v
		}
		return cur
	}

	const opsEach = 4000
	const rounds = 5
	var baseline float64
	for r := 0; r < rounds; r++ {
		v, err := round(opsEach, false)
		if err != nil {
			return fmt.Errorf("probe mvcc baseline: %w", err)
		}
		baseline = best(baseline, v)
	}

	stop := make(chan struct{})
	var scanWG sync.WaitGroup
	var scans atomic.Int64
	var scanErr error
	scanWG.Add(1)
	go func() {
		defer scanWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := db.SnapshotView()
			for _, sur := range v.Surrogates() {
				if _, err := v.VisibleComponents(sur); err != nil {
					scanErr = fmt.Errorf("probe mvcc scan at seq %d: %w", v.Seq(), err)
					v.Release()
					return
				}
			}
			v.Release()
			scans.Add(1)
		}
	}()
	var withScan float64
	for r := 0; r < rounds; r++ {
		v, err := round(opsEach, true)
		if err != nil {
			close(stop)
			return fmt.Errorf("probe mvcc with-scan: %w", err)
		}
		withScan = best(withScan, v)
	}
	close(stop)
	scanWG.Wait()
	if scanErr != nil {
		return scanErr
	}

	st := db.Stats().MVCC
	rep.Pins = st.Pins
	rep.Taken = st.Taken
	rep.GCRuns = st.GCRuns
	rep.GCReclaimed = st.Reclaimed
	rep.ExtraVersions = st.ExtraVersions
	rep.WriterNsPerOpBaseline = baseline
	rep.WriterNsPerOpWithScan = withScan
	rep.WriterOpsDuringScan = during.Load()
	rep.ScansCompleted = scans.Load()
	if withScan > 0 {
		rep.ScanRatio = baseline / withScan
	}
	return nil
}

// mvccExportProbe runs the determinism oracle on a real on-disk
// database: pin a snapshot in the middle of a concurrent workload,
// export it, then replay the journal serially truncated at the pin
// sequence and byte-compare the two states.
func mvccExportProbe(rep *mvccReport) error {
	dir, err := os.MkdirTemp("", "cadbench-mvcc-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: dir, SyncEvery: -1})
	if err != nil {
		return err
	}
	iface, err := bench.Interface(db, 2, 1, 4, 2)
	if err != nil {
		db.Close()
		return err
	}
	impl, err := db.NewObject(paperschema.TypeGateImplementation, "")
	if err != nil {
		db.Close()
		return err
	}
	if _, err := db.Bind(paperschema.RelAllOfGateInterface, impl, iface); err != nil {
		db.Close()
		return err
	}

	var wg sync.WaitGroup
	wg.Add(2)
	var werr error
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			_ = db.SetAttr(iface, "Length", cadcam.Int(int64(i)))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			sur, err := db.NewObject(paperschema.TypeGateInterface, "")
			if err != nil {
				werr = err
				return
			}
			_ = db.SetAttr(sur, "Width", cadcam.Int(int64(i)))
		}
	}()
	time.Sleep(2 * time.Millisecond)
	sn := db.Store().Snapshot()
	seq := sn.Seq()
	pinned := sn.Export()
	sn.Release()
	wg.Wait()
	if werr != nil {
		db.Close()
		return werr
	}
	if err := db.Close(); err != nil {
		return err
	}

	sc, err := cadcam.ScanJournal(dir)
	if err != nil {
		return err
	}
	// Keep the ops at or below the pin. The whole journal decodes first:
	// a kept op's names, Seq and surrogates refer to records that may be
	// dropped.
	var kept []*oplog.Op
	var names oplog.Decoder
	for _, rec := range sc.Records {
		op, err := names.Decode(rec)
		if err != nil {
			return err
		}
		if op != nil && op.Seq > 0 && op.Seq <= seq {
			kept = append(kept, op)
		}
	}
	fresh, err := object.NewStore(paperschema.MustGates())
	if err != nil {
		return err
	}
	vm := version.NewManager(fresh)
	if err := wal.Replay(kept, fresh, vm); err != nil {
		return err
	}
	rep.ExportIdentical = bytes.Equal(
		wal.EncodeSnapshot(pinned, vm.Export()),
		wal.EncodeSnapshot(fresh.Export(), vm.Export()))
	if !rep.ExportIdentical {
		return fmt.Errorf("probe mvcc export: pinned snapshot at seq %d differs from truncated replay", seq)
	}
	return nil
}
