// Package cadcam is an object-oriented engineering database implementing
// the model of "Complex and Composite Objects in CAD/CAM Databases"
// (Wilkes, Klahold, Schlageter, 1988/89): complex objects with local
// subobjects and relationships, first-class relationship objects, and —
// the paper's central contribution — inheritance relationships between
// objects that carry attribute *values* from a transmitter to its
// inheritors with selective permeability, modelling both the
// interface/implementation relationship and composite objects with one
// mechanism.
//
// A Database bundles the schema catalog, the object store, the version
// manager, the transaction manager and the persistence layer:
//
//	cat, _ := ddl.Parse(schemaText)            // or a schema.Catalog built in Go
//	db, _ := cadcam.Open(cat, cadcam.Options{Dir: "data"})
//	defer db.Close()
//	iface, _ := db.NewObject("GateInterface", "")
//	impl, _ := db.NewObject("GateImplementation", "")
//	db.Bind("AllOf_GateInterface", impl, iface)
//
// Durability model: every mutation performed through the Database (or
// directly on its Store) is journaled in execution order to a
// CRC-framed, fsynced log and replayed deterministically on Open;
// Checkpoint compacts the journal into an atomic, incrementally
// maintained checkpoint (a manifest plus per-shard segments, re-encoding
// only shards that changed). Transactions (Begin) provide strict
// two-phase locking with portion locks, lock inheritance and expansion
// locking over the in-memory image; their journal records include
// compensating operations on abort, so the journal always reproduces the
// exact store state. Statement-level durability is the recovery unit — a
// transaction open at crash time is replayed up to its last statement;
// use Workspaces (checkout/checkin) for all-or-nothing publication of
// long design sessions.
package cadcam

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cadcam/internal/domain"
	"cadcam/internal/fault"
	"cadcam/internal/object"
	"cadcam/internal/oplog"
	"cadcam/internal/repl"
	"cadcam/internal/schema"
	"cadcam/internal/storage"
	"cadcam/internal/txn"
	"cadcam/internal/version"
	"cadcam/internal/wal"
)

// Checkpoint failpoints, in protocol order. A checkpoint rotates the
// journal first (under the store's exclusive lock), then encodes and
// writes segments, then commits the manifest, then garbage-collects:
//
//	fpCheckpointGap  — after the journal rotation, before anything is
//	                   written: recovery must replay the wal chain
//	                   (previous epoch's log plus the fresh one) on top
//	                   of the previous checkpoint.
//	fpSegmentWrite   — while writing a new segment file: the manifest
//	                   does not exist yet, so recovery must ignore the
//	                   orphan segments and use the previous checkpoint.
//	fpManifestSwap   — after every segment is durable, before the
//	                   manifest rename commits: same recovery obligation
//	                   as fpSegmentWrite.
//	fpSegmentGC      — after the manifest committed, before stale files
//	                   are removed: recovery must prefer the newest
//	                   manifest and clean up the leftovers.
var (
	fpCheckpointGap = fault.New("db/checkpoint-gap")
	fpSegmentWrite  = fault.New("db/segment-write")
	fpManifestSwap  = fault.New("db/manifest-swap")
	fpSegmentGC     = fault.New("db/segment-gc")
)

// ErrFrozenVersion reports a write to an object frozen by the version
// manager.
var ErrFrozenVersion = errors.New("cadcam: version is frozen")

// ErrCheckpointUnreadable reports an Open of a directory whose
// checkpoint exists but cannot be read (a damaged or unsupported
// manifest or segment with no older loadable checkpoint, or a journal
// chain that starts past the missing checkpoint). Open then modifies no
// file, so the directory can be repaired or restored.
var ErrCheckpointUnreadable = wal.ErrCheckpointUnreadable

// Durability selects when a mutation is acknowledged relative to journal
// I/O.
type Durability int

const (
	// DurabilityAuto derives the mode from SyncEvery: sync when the
	// effective cadence is 1 (the durable default), async otherwise.
	DurabilityAuto Durability = iota
	// DurabilitySync acknowledges a mutation only after the group-commit
	// batch carrying its journal record is written and fsynced.
	DurabilitySync
	// DurabilityAsync acknowledges a mutation once its record is queued;
	// the committer writes and fsyncs in the background per SyncEvery.
	DurabilityAsync
)

// Options configures Open.
type Options struct {
	// Dir is the persistence directory; "" opens an in-memory database.
	Dir string
	// SyncEvery controls the journal fsync cadence. One rule, applied
	// identically at Open, at every checkpoint epoch swap, and inside the
	// group-commit pipeline:
	//
	//	 0  (default) → cadence 1: every commit batch is fsynced
	//	 n ≥ 1        → fsync after at least n journaled records
	//	 n < 0        → never fsync on append (Close/Checkpoint still sync)
	SyncEvery int
	// Durability selects sync-per-batch (durable) vs async
	// acknowledgment; the default derives it from SyncEvery.
	Durability Durability
	// CheckpointEvery, when > 0, triggers an automatic checkpoint after
	// that many journaled operations.
	CheckpointEvery int
	// DeletePolicy is the transmitter delete policy (default
	// DeleteRestrict).
	DeletePolicy object.DeletePolicy
	// Shards is the object-store shard count (0 = default, currently 16).
	// Operations on objects in different shards take different locks;
	// snapshots are shard-agnostic, so a database written with one count
	// reopens cleanly with another (such a reopen merely re-encodes every
	// segment at the next checkpoint).
	Shards int
	// RecoveryWorkers bounds the goroutines recovery uses to decode
	// checkpoint segments, import objects and replay the journal tail
	// (0 = GOMAXPROCS, 1 = serial).
	RecoveryWorkers int
}

// syncCadence normalizes SyncEvery to the pipeline's fsync cadence:
// records per fsync, 0 meaning "never on append".
func (o Options) syncCadence() int {
	switch {
	case o.SyncEvery == 0:
		return 1
	case o.SyncEvery < 0:
		return 0
	default:
		return o.SyncEvery
	}
}

// durable reports whether mutations wait for their group-commit batch.
func (o Options) durable() bool {
	switch o.Durability {
	case DurabilitySync:
		return true
	case DurabilityAsync:
		return false
	default:
		return o.syncCadence() == 1
	}
}

// workers normalizes RecoveryWorkers.
func (o Options) workers() int {
	if o.RecoveryWorkers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.RecoveryWorkers
}

// CheckpointStats counts incremental-checkpoint work since Open.
type CheckpointStats struct {
	// Checkpoints and Failures count completed and failed Checkpoint
	// calls (in-memory databases never count).
	Checkpoints uint64 `json:"checkpoints"`
	Failures    uint64 `json:"failures"`
	// SegmentsWritten and SegmentsSkipped count per-shard segment files
	// across all checkpoints: skipped shards were clean since their last
	// encoded segment and kept the old file.
	SegmentsWritten uint64 `json:"segments_written"`
	SegmentsSkipped uint64 `json:"segments_skipped"`
	// BytesEncoded is the total size of all encoded segment and manifest
	// payloads (before CRC framing).
	BytesEncoded uint64 `json:"bytes_encoded"`
	// LastError describes the most recent checkpoint failure; cleared by
	// the next successful checkpoint.
	LastError string `json:"last_error,omitempty"`
	// LockHoldNs is the wall time the last checkpoint held the store's
	// exclusive lock (journal rotation plus snapshot pin); MaxLockHoldNs
	// is the worst case since Open. Segment encoding happens off-lock on
	// an MVCC snapshot, so these measure the whole stop-the-world window.
	LockHoldNs    int64 `json:"lock_hold_ns"`
	MaxLockHoldNs int64 `json:"max_lock_hold_ns"`
}

// RecoveryStats describes the recovery work the last Open performed.
type RecoveryStats struct {
	// Segments is the number of checkpoint segment files decoded (0 for
	// a directory without a checkpoint).
	Segments int `json:"segments"`
	// DecodeNs is the wall time spent locating, reading, decoding and
	// importing the checkpoint state (manifest + segments): one streamed
	// step, segment by segment.
	DecodeNs int64 `json:"decode_ns"`
	// PeakRecords is the most decoded checkpoint records held at once
	// while importing: at most Workers segments' worth.
	PeakRecords int `json:"peak_records"`
	// ReplayOps is the number of journal records replayed on top.
	ReplayOps int `json:"replay_ops"`
	// ReplayNs is the wall time of the journal replay.
	ReplayNs int64 `json:"replay_ns"`
	// Workers is the parallelism recovery ran with.
	Workers int `json:"workers"`
}

// Database is one open CAD/CAM database.
type Database struct {
	cat      *schema.Catalog
	store    *object.Store
	versions *version.Manager
	txns     *txn.Manager

	// mu serializes version-manager mutations, checkpoints and Close
	// against each other. Store mutations do not take it (the store
	// serializes itself and journals under its own lock).
	mu sync.Mutex

	dir   string
	epoch uint64
	opts  Options

	// Incremental-checkpoint bookkeeping (guarded by mu). manifestEpoch
	// is the epoch of the last committed manifest; segEpochs[p] is the
	// epoch whose segment file currently describes shard p; ckptBaseline
	// holds each shard's dirty counter at that commit. ckptBaseline is
	// nil (forcing the next checkpoint to encode every shard) until a
	// manifest whose partition count matches the store's shard count has
	// been committed or recovered.
	manifestEpoch uint64
	segEpochs     []uint64
	ckptBaseline  []uint64

	// statMu guards the observability counters, which Stats readers poll
	// without taking mu (a checkpoint may be in progress).
	statMu    sync.Mutex
	ckptStats CheckpointStats
	recStats  RecoveryStats
	ckptErr   error

	// committer is the group-commit journal pipeline (nil in-memory).
	// Mutations enqueue their op under the store mutex — fixing the
	// deterministic replay order — and wait for durability outside it.
	committer *storage.Group

	// shipper lazily serves read replicas off the journal chain
	// (replica.go); nil until the first Shipper/AttachFollower call.
	replMu  sync.Mutex
	shipper *repl.Shipper

	opsSinceCheckpoint atomic.Int64
	closed             bool
}

// Open creates or recovers a database over a validated catalog.
func Open(cat *schema.Catalog, opts Options) (*Database, error) {
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	db := &Database{cat: cat, dir: opts.Dir, opts: opts}
	if opts.Dir == "" {
		var err error
		if db.store, db.versions, err = db.newStore(); err != nil {
			return nil, err
		}
	} else {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("cadcam: %w", err)
		}
		log, err := db.recover()
		if err != nil {
			return nil, err
		}
		db.committer = storage.NewGroup(log, storage.GroupConfig{
			SyncCadence: opts.syncCadence(),
			WaitSync:    opts.durable(),
		})
	}
	if db.committer != nil {
		db.store.SetJournal(db.appendOp)
	}
	db.store.SetWriteGuard(func(sur domain.Surrogate) error {
		if db.versions.Frozen(sur) {
			return fmt.Errorf("%w: %s", ErrFrozenVersion, sur)
		}
		return nil
	})
	db.txns = txn.NewManager(db.store)
	if db.committer != nil {
		// Transaction statements mutate the store directly; the barrier
		// gives them the same per-statement group-commit durability (and
		// fail-fast on a poisoned journal) as facade mutations.
		db.txns.SetDurabilityBarrier(db.waitDurable)
	}
	return db, nil
}

// newStore builds an empty store and version manager as the options
// configure them. The delete policy must be in force *before* replay:
// journaled Delete ops were validated under it live, and re-validating
// them under the default would reject a journal the database itself
// wrote. A policy change journaled mid-run still replays on top, in
// order, exactly as it happened live. No journal is attached yet, so the
// override itself (an Open-time option, re-supplied on every Open) is
// not journaled.
func (db *Database) newStore() (*object.Store, *version.Manager, error) {
	store, err := object.NewStoreShards(db.cat, db.opts.Shards)
	if err != nil {
		return nil, nil, err
	}
	if db.opts.DeletePolicy != object.DeleteRestrict {
		store.SetDeletePolicy(db.opts.DeletePolicy)
	}
	return store, version.NewManager(store), nil
}

// OpenMemory opens an in-memory database (no persistence).
func OpenMemory(cat *schema.Catalog) (*Database, error) {
	return Open(cat, Options{})
}

// WALFilename, ManifestFilename and SegmentFilename name the epoch files
// a persistent database keeps in its directory. Exported for tools (the
// crash-matrix harness locates the live journal with them); the
// canonical definitions live in internal/wal, shared with recovery and
// the replication shipper.
//
// WALFilename returns the journal file name of an epoch.
func WALFilename(epoch uint64) string { return wal.WALFilename(epoch) }

// ManifestFilename returns the checkpoint manifest file name of an epoch.
func ManifestFilename(epoch uint64) string { return wal.ManifestFilename(epoch) }

// SegmentFilename returns the file name of shard partition `part`'s
// segment encoded at an epoch.
func SegmentFilename(epoch uint64, part int) string {
	return wal.SegmentFilename(epoch, part)
}

func (db *Database) walPath(epoch uint64) string {
	return filepath.Join(db.dir, WALFilename(epoch))
}

func (db *Database) manifestPath(epoch uint64) string {
	return filepath.Join(db.dir, ManifestFilename(epoch))
}

func (db *Database) segPath(epoch uint64, part int) string {
	return filepath.Join(db.dir, SegmentFilename(epoch, part))
}

// epochFilePrefixes are the file-name prefixes recovery and checkpoint
// GC own; nothing else in a database directory is ever removed.
var epochFilePrefixes = [...]string{"wal-", "manifest-", "seg-"}

func isEpochFile(name string) bool {
	for _, p := range epochFilePrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// ScanState is what ScanJournal reads out of a database directory: the
// decoded checkpoint state (nil for a fresh directory) and the journal
// records replayed on top of it.
type ScanState struct {
	// Epoch is the checkpoint epoch the state was loaded at (the first
	// epoch of the journal chain).
	Epoch uint64
	// Store and Versions are the checkpoint state; both nil when the
	// directory has no checkpoint.
	Store    *object.StoreState
	Versions *version.ManagerState
	// Records is the journal chain in append order, batch frames
	// expanded; decode each with oplog.Decode.
	Records [][]byte
}

// ScanJournal reads the persistent state of a database directory without
// opening a database. The crash-recovery harness replays the records
// against its model oracle. Like recovery, scanning truncates a torn
// journal tail in place.
func ScanJournal(dir string) (*ScanState, error) {
	var sc ScanState
	ds, err := wal.LoadDirState(dir, func(cp *wal.Checkpoint) (err error) {
		sc.Store, sc.Versions, err = cp.State()
		return err
	})
	if err != nil {
		return nil, err
	}
	if cerr := ds.Log.Close(); cerr != nil {
		return nil, cerr
	}
	sc.Epoch, sc.Records = ds.Epoch, ds.Records
	return &sc, nil
}

// recover imports the newest valid checkpoint into a fresh store, one
// segment at a time on parallel workers (wal.ImportCheckpoint; a
// checkpoint that fails to import is thrown away with its store and the
// next older one tried on a fresh store), replays the journal chain on
// top (shard-parallel where the record mix allows, see wal.ReplayN), and
// removes stale files from older epochs. It returns the opened live
// journal, which the caller hands to the group committer. A checkpoint
// that exists but cannot be read fails with ErrCheckpointUnreadable
// before any file is created or removed.
func (db *Database) recover() (*storage.Log, error) {
	workers := db.opts.workers()
	var peak int
	ds, err := wal.LoadDirState(db.dir, func(cp *wal.Checkpoint) (err error) {
		if db.store, db.versions, err = db.newStore(); err != nil || cp.Manifest == nil {
			return err
		}
		peak, err = wal.ImportCheckpoint(cp, db.store, db.versions, workers)
		return err
	})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := wal.ReplayN(ds.Records, db.store, db.versions, workers); err != nil {
		ds.Log.Close()
		return nil, fmt.Errorf("cadcam: %w", err)
	}
	db.epoch = ds.LiveEpoch
	if len(ds.SegEpochs) == db.store.Shards() {
		// Segment reuse carries across restarts: the dirty counters
		// restart at zero, and replaying the journal tail re-dirties
		// exactly the shards whose on-disk segments are now stale, so the
		// next checkpoint re-encodes those and keeps the rest.
		db.manifestEpoch = ds.Epoch
		db.segEpochs = append([]uint64(nil), ds.SegEpochs...)
		db.ckptBaseline = make([]uint64, db.store.Shards())
	}
	db.statMu.Lock()
	db.recStats = RecoveryStats{
		Segments:    len(ds.SegEpochs),
		DecodeNs:    ds.LoadNs,
		PeakRecords: peak,
		ReplayOps:   len(ds.Records),
		ReplayNs:    time.Since(t0).Nanoseconds(),
		Workers:     workers,
	}
	db.statMu.Unlock()
	db.gcStale(ds)
	return ds.Log, nil
}

// gcStale removes every epoch file the recovered state does not
// reference: older (or orphaned newer) checkpoints, segments no current
// manifest points at, and journals below the chain. Best-effort; a
// leftover file is re-collected by the next recovery or checkpoint.
func (db *Database) gcStale(ds *wal.DirState) {
	entries, err := os.ReadDir(db.dir)
	if err != nil {
		return
	}
	keep := make(map[string]bool)
	if ds.Checkpointed {
		keep[ManifestFilename(ds.Epoch)] = true
		for p, se := range ds.SegEpochs {
			keep[SegmentFilename(se, p)] = true
		}
	}
	for e := ds.Epoch; e <= ds.LiveEpoch; e++ {
		keep[WALFilename(e)] = true
	}
	for _, e := range entries {
		if name := e.Name(); isEpochFile(name) && !keep[name] {
			_ = os.Remove(filepath.Join(db.dir, name))
		}
	}
}

// appendOp is the store's journal hook; it runs inside the emitting
// shard's critical section (or under db.mu for version ops), so it only
// clones the op and enqueues it — encoding and I/O happen on the
// committing goroutine, outside every store lock. With sharded writers
// the journal's append order is arrival order, which can differ from
// store-sequence order across shards; each op carries the sequence it
// consumed (op.Seq), and replay re-primes the counter per op, so recovery
// is deterministic regardless of the interleaving (see wal.Replay).
func (db *Database) appendOp(op *oplog.Op) {
	if db.committer == nil {
		return
	}
	db.committer.Enqueue(op.Clone())
	db.opsSinceCheckpoint.Add(1)
}

// waitDurable blocks until every journal record enqueued so far is
// durable per the configured durability mode, surfacing the sticky
// journal error. Mutating facade methods call it after the store call
// returns (no store lock held), so concurrent mutations coalesce into
// one batch and one fsync.
func (db *Database) waitDurable() error {
	if db.committer == nil {
		return nil
	}
	return db.committer.CommitTail()
}

// afterWrite completes a facade mutation: on success it waits for
// group-commit durability, then applies the auto-checkpoint policy.
func (db *Database) afterWrite(err error) error {
	if err == nil {
		err = db.waitDurable()
	}
	db.maybeCheckpoint()
	return err
}

// Err reports the first journaling error, if any. A non-nil result means
// durability is compromised and the database should be closed; mutating
// facade methods fail fast with this error once it is set.
func (db *Database) Err() error {
	if db.committer == nil {
		return nil
	}
	return db.committer.Err()
}

// CheckpointErr reports the sticky error of the most recent failed
// checkpoint — nil once a later checkpoint succeeds. While set, the
// journal is still growing past its compaction point: the database is
// consistent and durable, but recovery replays a longer chain.
func (db *Database) CheckpointErr() error {
	db.statMu.Lock()
	defer db.statMu.Unlock()
	return db.ckptErr
}

// noteCheckpoint records a checkpoint outcome in the stats counters.
func (db *Database) noteCheckpoint(written, skipped int, bytes uint64, err error) {
	db.statMu.Lock()
	defer db.statMu.Unlock()
	if err != nil {
		db.ckptStats.Failures++
		db.ckptStats.LastError = err.Error()
		db.ckptErr = fmt.Errorf("cadcam: checkpoint failed, journal compaction stalled: %w", err)
		return
	}
	db.ckptStats.Checkpoints++
	db.ckptStats.SegmentsWritten += uint64(written)
	db.ckptStats.SegmentsSkipped += uint64(skipped)
	db.ckptStats.BytesEncoded += bytes
	db.ckptStats.LastError = ""
	db.ckptErr = nil
}

// Checkpoint compacts the journal into the incremental checkpoint: it
// rotates the journal and pins an MVCC snapshot under the store's
// exclusive lock, then — with writers running again — exports the dirty
// shards' records from the snapshot, encodes a segment for every shard
// dirtied since its last encoded segment, writes the manifest binding
// segments to the new journal epoch, and garbage-collects what the
// manifest no longer references. Concurrent mutations block only for
// the journal rotation itself (Stats().Checkpoint.LockHoldNs); the
// record capture runs on the snapshot, off the lock.
func (db *Database) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.checkpointLocked()
}

func (db *Database) checkpointLocked() error {
	if db.dir == "" {
		return nil // in-memory: nothing to do
	}
	if db.closed {
		return fmt.Errorf("cadcam: database closed")
	}
	next := db.epoch + 1
	var vs *version.ManagerState
	swapped := false
	pc, err := db.store.PinCheckpoint(db.ckptBaseline, func() error {
		// Version mutations go through db.mu (held) and store mutations
		// are excluded, so both exports are mutually consistent — and no
		// Enqueue can race the pipeline drain below.
		//
		// Drain the pipeline first: every record enqueued before this
		// exclusive section must land in the outgoing epoch's log, never
		// the new one (replayed against the new checkpoint it would apply
		// twice).
		if err := db.committer.Flush(); err != nil {
			return err
		}
		vs = db.versions.Export()
		newLog, records, err := storage.OpenLog(db.walPath(next))
		if err != nil {
			return err
		}
		if len(records) != 0 {
			// A stale log from a crashed previous checkpoint: discard it.
			if err := newLog.Reset(); err != nil {
				newLog.Close()
				return err
			}
		}
		old, err := db.committer.SwapLog(newLog)
		if err != nil {
			newLog.Close()
			return err
		}
		// The outgoing log stays on disk: until the manifest below
		// commits, it is part of the journal chain recovery replays on
		// top of the previous checkpoint.
		_ = old.Close()
		swapped = true
		return fpCheckpointGap.Hit()
	})
	if swapped {
		// The rotation is irrevocable: records now land in the new
		// epoch's log, and recovery replays the whole chain whether or
		// not the manifest commits, so the epoch advances on every
		// post-swap path, success or failure.
		db.epoch = next
		db.opsSinceCheckpoint.Store(0)
	}
	if err != nil {
		db.noteCheckpoint(0, 0, 0, err)
		return err
	}
	db.statMu.Lock()
	db.ckptStats.LockHoldNs = pc.LockHoldNs
	if pc.LockHoldNs > db.ckptStats.MaxLockHoldNs {
		db.ckptStats.MaxLockHoldNs = pc.LockHoldNs
	}
	db.statMu.Unlock()
	// The flush above drained every record at or below the pin into the
	// outgoing log, and the swap directs everything after it to the new
	// one, so the snapshot's records are exactly the state the rotated
	// journal chain reproduces. Writers are live again: the export walks
	// the version chains at the pinned sequence while they mutate.
	ex := pc.Snap.ExportShards(pc.Marks, pc.Dirty)
	pc.Snap.Release()
	return db.publishCheckpoint(next, ex, vs)
}

// publishCheckpoint encodes the dirty shards' segments, writes them and
// the committing manifest, and garbage-collects everything the manifest
// no longer references. It runs after the journal rotation with no store
// lock held — writers proceed concurrently — but under db.mu, so
// checkpoints serialize. Until the manifest rename lands, the directory
// still recovers from the previous checkpoint plus the journal chain; a
// failure here therefore only removes the new segments and reports.
func (db *Database) publishCheckpoint(next uint64, ex *object.StoreExport, vs *version.ManagerState) error {
	parts := len(ex.Shards)
	segEpochs := make([]uint64, parts)
	marks := make([]uint64, parts)
	var dirty []int
	for i := range ex.Shards {
		marks[i] = ex.Shards[i].Mark
		if ex.Shards[i].Exported {
			segEpochs[i] = next
			dirty = append(dirty, i)
		} else {
			segEpochs[i] = db.segEpochs[i]
		}
	}
	abandon := func(err error) error {
		for _, p := range dirty {
			_ = os.Remove(db.segPath(next, p))
		}
		db.noteCheckpoint(0, 0, 0, err)
		return err
	}

	var bytesEncoded atomic.Uint64
	workers := runtime.GOMAXPROCS(0)
	if workers > len(dirty) {
		workers = len(dirty)
	}
	errs := make([]error, len(dirty))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for di := w; di < len(dirty); di += workers {
				p := dirty[di]
				blob := wal.EncodeSegment(p, ex.Shards[p].Objects, ex.Shards[p].Bindings)
				bytesEncoded.Add(uint64(len(blob)))
				if err := fpSegmentWrite.Hit(); err != nil {
					errs[di] = err
					return
				}
				if err := storage.WriteSnapshot(db.segPath(next, p), blob); err != nil {
					errs[di] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return abandon(err)
		}
	}

	blob := wal.EncodeManifest(&wal.Manifest{Epoch: next, SegEpochs: segEpochs, Base: ex.Base, Versions: vs})
	bytesEncoded.Add(uint64(len(blob)))
	if err := fpManifestSwap.Hit(); err != nil {
		return abandon(err)
	}
	if err := storage.WriteSnapshot(db.manifestPath(next), blob); err != nil {
		return abandon(err)
	}

	// The manifest rename is the commit point: from here the checkpoint
	// is the directory's newest recoverable state, and the segment-reuse
	// baseline advances with it.
	db.manifestEpoch = next
	db.segEpochs = segEpochs
	db.ckptBaseline = marks
	db.noteCheckpoint(len(dirty), parts-len(dirty), bytesEncoded.Load(), nil)

	if err := fpSegmentGC.Hit(); err != nil {
		// The checkpoint committed; only the cleanup was skipped. Stale
		// files linger until the next checkpoint or recovery collects
		// them. Reported (and counted) so the leak is observable.
		db.noteCheckpoint(0, 0, 0, err)
		return err
	}
	entries, err := os.ReadDir(db.dir)
	if err != nil {
		return nil // best-effort GC
	}
	keep := map[string]bool{
		ManifestFilename(next): true,
		WALFilename(next):      true,
	}
	for p, se := range segEpochs {
		keep[SegmentFilename(se, p)] = true
	}
	for _, e := range entries {
		if name := e.Name(); isEpochFile(name) && !keep[name] {
			_ = os.Remove(filepath.Join(db.dir, name))
		}
	}
	return nil
}

// maybeCheckpoint runs an automatic checkpoint when configured. A
// failure no longer vanishes: checkpointLocked records it in
// Stats().Checkpoint and keeps CheckpointErr set until a later
// checkpoint succeeds, while the journal keeps the database durable.
func (db *Database) maybeCheckpoint() {
	if db.opts.CheckpointEvery > 0 && int(db.opsSinceCheckpoint.Load()) >= db.opts.CheckpointEvery {
		_ = db.Checkpoint() // outcome recorded in checkpoint stats
	}
}

// Close syncs and closes the journal. The database must not be used
// afterwards.
func (db *Database) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	db.store.SetJournal(nil)
	if db.committer != nil {
		// Close drains and fsyncs the queue before closing the log, so
		// every acknowledged (and every queued async) mutation is on disk.
		return db.committer.Close()
	}
	return nil
}
