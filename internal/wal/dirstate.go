package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cadcam/internal/codec"
	"cadcam/internal/object"
	"cadcam/internal/storage"
	"cadcam/internal/version"
)

// ErrCheckpointUnreadable reports a directory whose history needs a
// checkpoint that cannot be loaded: manifests exist but none decodes
// and imports together with its segments, or the journal chain starts
// past epoch 0 with no checkpoint beneath it. Loading on from an empty
// state would silently drop everything the checkpoint held, so loaders
// stop here and leave every file in place.
var ErrCheckpointUnreadable = errors.New("wal: checkpoint unreadable")

// Checkpoint is one committed checkpoint as stored: its decoded manifest
// and the payload of every segment it references, read and CRC-checked
// but not decoded. Manifest is nil (and Epoch 0) when the directory has
// no checkpoint: a fresh directory, or one whose first checkpoint never
// committed.
type Checkpoint struct {
	// Epoch is the checkpoint epoch: the first journal epoch replayed on
	// top of the state.
	Epoch    uint64
	Manifest *Manifest
	// Segments[p] is partition p's segment payload.
	Segments [][]byte

	manifest []byte // the manifest payload as read, for Encode
}

// LoadCheckpoint reads the newest checkpoint in dir whose manifest
// decodes and whose segment files all read with a valid CRC. A damaged
// newer checkpoint falls back to an older one only when that one reads
// completely; when none does, the error wraps ErrCheckpointUnreadable.
// It never writes, so a replication shipper can call it against a live
// primary. A manifest a concurrent checkpoint garbage-collects mid-read
// is skipped, not counted as damage; if every manifest went that way the
// error wraps ErrChainGap and the caller retries.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	return loadNewest(dir, nil)
}

// loadNewest reads the directory's checkpoints newest first and returns
// the first that reads completely and, when accept is non-nil, that
// accept takes without error. The fallback and error rules are
// LoadCheckpoint's.
func loadNewest(dir string, accept func(*Checkpoint) error) (*Checkpoint, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var manifests []uint64
	var journalZero, journalLater bool
	for _, e := range entries {
		// Exact names only: a crash mid-write leaves "manifest-….mf.tmp".
		var n uint64
		if _, err := fmt.Sscanf(e.Name(), "manifest-%d.mf", &n); err == nil && e.Name() == ManifestFilename(n) {
			manifests = append(manifests, n)
		} else if _, err := fmt.Sscanf(e.Name(), "wal-%d.log", &n); err == nil && e.Name() == WALFilename(n) {
			journalZero = journalZero || n == 0
			journalLater = journalLater || n > 0
		}
	}
	sort.Slice(manifests, func(i, j int) bool { return manifests[i] > manifests[j] })

	var damaged error
	for _, e := range manifests {
		cp, err := readCheckpoint(dir, e)
		if err == nil && accept != nil {
			err = accept(cp)
		}
		if err == nil {
			return cp, nil
		}
		if _, serr := os.Stat(filepath.Join(dir, ManifestFilename(e))); errors.Is(serr, os.ErrNotExist) {
			continue // superseded and collected while we read it
		}
		if damaged == nil {
			damaged = fmt.Errorf("%s: %w", ManifestFilename(e), err)
		}
	}
	switch {
	case damaged != nil:
		return nil, fmt.Errorf("%w: %w", ErrCheckpointUnreadable, damaged)
	case len(manifests) > 0:
		return nil, fmt.Errorf("%w: every checkpoint was superseded while loading", ErrChainGap)
	case journalLater && !journalZero:
		return nil, fmt.Errorf("%w: journal chain starts past epoch 0 and no checkpoint exists", ErrCheckpointUnreadable)
	}
	return &Checkpoint{}, nil
}

// readCheckpoint reads and decodes one manifest and reads every segment
// it references. Any missing or corrupt file fails the whole checkpoint.
func readCheckpoint(dir string, epoch uint64) (*Checkpoint, error) {
	blob, err := storage.ReadSnapshot(filepath.Join(dir, ManifestFilename(epoch)))
	if err != nil {
		return nil, err
	}
	if blob == nil {
		return nil, fmt.Errorf("wal: manifest of epoch %d missing", epoch)
	}
	m, err := DecodeManifest(blob)
	if err != nil {
		return nil, err
	}
	if m.Epoch != epoch {
		return nil, fmt.Errorf("wal: manifest file of epoch %d holds epoch %d", epoch, m.Epoch)
	}
	cp := &Checkpoint{Epoch: epoch, Manifest: m, Segments: make([][]byte, len(m.SegEpochs)), manifest: blob}
	for p, se := range m.SegEpochs {
		name := SegmentFilename(se, p)
		b, err := storage.ReadSnapshot(filepath.Join(dir, name))
		if err == nil && b == nil {
			err = errors.New("missing")
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		cp.Segments[p] = b
	}
	return cp, nil
}

// ImportCheckpoint builds the checkpoint's state into an empty store and
// version manager. It decodes one segment, imports it and drops it, on
// up to `workers` goroutines (<= 0 means GOMAXPROCS), so the decoded
// records held at once stay near `workers` segments' worth; peak reports
// the most (object.Store.ImportStream). It is the only way a checkpoint
// enters a store: recovery and replication resync both call it. On
// error the caller discards the store and the manager.
func ImportCheckpoint(cp *Checkpoint, s *object.Store, vm *version.Manager, workers int) (peak int, err error) {
	m := cp.Manifest
	peak, err = s.ImportStream(m.Base, len(cp.Segments), workers, func(p int) ([]object.ObjectRecord, []object.BindingRecord, error) {
		objs, binds, err := DecodeSegment(cp.Segments[p], p)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", SegmentFilename(m.SegEpochs[p], p), err)
		}
		return objs, binds, nil
	})
	if err != nil {
		return peak, err
	}
	return peak, vm.Import(m.Versions)
}

// State decodes the whole checkpoint into one store state and its
// version state, for verification tooling that feeds the records to an
// independent model of the store; recovery imports segment by segment
// instead (ImportCheckpoint). A checkpoint without a manifest decodes as
// nil states.
func (cp *Checkpoint) State() (*object.StoreState, *version.ManagerState, error) {
	m := cp.Manifest
	if m == nil {
		return nil, nil, nil
	}
	st := &object.StoreState{Classes: m.Base.Classes, Indexes: m.Base.Indexes, NextSur: m.Base.NextSur, Seq: m.Base.Seq}
	for p, b := range cp.Segments {
		objs, binds, err := DecodeSegment(b, p)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", SegmentFilename(m.SegEpochs[p], p), err)
		}
		st.Objects = append(st.Objects, objs...)
		st.Bindings = append(st.Bindings, binds...)
	}
	return st, m.Versions, nil
}

// Resync payload: what a replication shipper sends a follower in place
// of its journal chain. It is the checkpoint's manifest payload and each
// segment payload exactly as read from disk, length-prefixed, behind a
// magic number; the manifest's partition table says how many segments
// follow.
const payloadMagic = uint64(0xCADC5EED)

// Encode serializes a loaded checkpoint as a resync payload. The
// checkpoint must have a manifest.
func (cp *Checkpoint) Encode() []byte {
	var e codec.Buf
	e.Uvarint(payloadMagic)
	e.Blob(cp.manifest)
	for _, b := range cp.Segments {
		e.Blob(b)
	}
	return e.Bytes()
}

// DecodeCheckpoint parses a resync payload. The manifest is decoded; the
// segment payloads alias b and are decoded only by ImportCheckpoint.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	r := codec.NewReader(b)
	if r.Uvarint() != payloadMagic {
		return nil, fmt.Errorf("wal: bad resync payload magic")
	}
	mb := r.Blob()
	if err := r.Err(); err != nil {
		return nil, err
	}
	m, err := DecodeManifest(mb)
	if err != nil {
		return nil, err
	}
	// Every segment carries at least its length byte, so the manifest's
	// partition count cannot size an allocation beyond the payload.
	if len(m.SegEpochs) > r.Rest() {
		return nil, fmt.Errorf("wal: resync payload holds fewer than %d segments", len(m.SegEpochs))
	}
	cp := &Checkpoint{Epoch: m.Epoch, Manifest: m, Segments: make([][]byte, len(m.SegEpochs)), manifest: mb}
	for p := range cp.Segments {
		cp.Segments[p] = r.Blob()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Rest() != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after resync payload", r.Rest())
	}
	return cp, nil
}

// DirState is what recovery derives from a database directory: the
// checkpoint it loaded and the journal chain on top of it.
type DirState struct {
	// Checkpointed reports whether a checkpoint was loaded; Epoch is its
	// epoch (the first journal epoch replayed) and SegEpochs its segment
	// epochs by partition.
	Checkpointed bool
	Epoch        uint64
	SegEpochs    []uint64
	// LoadNs is the wall time spent locating, reading and loading the
	// checkpoint, the caller's load function included.
	LoadNs int64

	// Records is the concatenated journal chain: every record of epochs
	// Epoch..LiveEpoch in append order, name and format records included,
	// to be decoded in order by one oplog.Decoder. A checkpoint rotates the journal
	// *before* committing its manifest, so a crashed or failed checkpoint
	// leaves several consecutive live logs; all of them replay. Log is the
	// opened newest journal, which the caller owns.
	Records   [][]byte
	LiveEpoch uint64
	Log       *storage.Log
}

// LoadDirState hands the directory's checkpoints, newest first, to load
// until load accepts one, then opens the journal chain on top of it for
// appending, truncating torn tails in place exactly as a restart must.
// load builds the caller's state from one checkpoint — recovery imports
// it into a fresh store with ImportCheckpoint — and a checkpoint that
// fails to read, or that load rejects, falls back to the next older one;
// the fallback and error rules are LoadCheckpoint's. A directory without
// a checkpoint calls load once with an empty Checkpoint (nil Manifest).
// Nothing is created or truncated when no checkpoint loads.
func LoadDirState(dir string, load func(*Checkpoint) error) (*DirState, error) {
	t0 := time.Now()
	cp, err := loadNewest(dir, load)
	if err != nil {
		return nil, err
	}
	ds := &DirState{}
	if cp.Manifest == nil {
		if err := load(cp); err != nil {
			return nil, err
		}
	} else {
		ds.Checkpointed, ds.Epoch, ds.SegEpochs = true, cp.Epoch, cp.Manifest.SegEpochs
	}
	ds.LoadNs = time.Since(t0).Nanoseconds()
	if ds.Records, ds.LiveEpoch, ds.Log, err = OpenChain(dir, cp.Epoch); err != nil {
		return nil, err
	}
	return ds, nil
}
