package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"cadcam/internal/object"
	"cadcam/internal/storage"
	"cadcam/internal/version"
)

// ErrCheckpointUnreadable reports a directory whose history needs a
// checkpoint that cannot be loaded: manifests exist but none decodes
// together with its segments, or the journal chain starts past epoch 0
// with no checkpoint beneath it. Loading on from an empty state would
// silently drop everything the checkpoint held, so loaders stop here and
// leave every file in place.
var ErrCheckpointUnreadable = errors.New("wal: checkpoint unreadable")

// Checkpoint is the newest loadable checkpoint of a database directory.
// Store is nil when the directory has none (a fresh directory, or one
// whose first checkpoint never committed), and Epoch is then 0;
// otherwise Versions is non-nil too.
type Checkpoint struct {
	// Epoch is the checkpoint epoch: the first journal epoch replayed on
	// top of the state.
	Epoch     uint64
	SegEpochs []uint64
	Store     *object.StoreState
	Versions  *version.ManagerState
	DecodeNs  int64
}

// LoadCheckpoint locates the newest checkpoint in dir whose manifest and
// segments all decode, decoding segments concurrently on up to `workers`
// goroutines (<= 0 means GOMAXPROCS). A damaged newer checkpoint falls
// back to an older one only when that one loads completely; when none
// does, the error wraps ErrCheckpointUnreadable. It never writes, so a
// replication shipper can call it against a live primary. A manifest a
// concurrent checkpoint garbage-collects mid-load is skipped, not
// counted as damage; if every manifest went that way the error wraps
// ErrChainGap and the caller retries.
func LoadCheckpoint(dir string, workers int) (*Checkpoint, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
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

	t0 := time.Now()
	var damaged error
	for _, e := range manifests {
		cp, err := loadManifest(dir, e, workers)
		if err == nil {
			cp.DecodeNs = time.Since(t0).Nanoseconds()
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
	return &Checkpoint{DecodeNs: time.Since(t0).Nanoseconds()}, nil
}

// DirState is what recovery derives from a database directory: the
// newest checkpoint and the journal chain on top of it.
type DirState struct {
	Checkpoint

	// Records is the concatenated journal chain: every record of epochs
	// Epoch..LiveEpoch in append order. A checkpoint rotates the journal
	// *before* committing its manifest, so a crashed or failed checkpoint
	// leaves several consecutive live logs; all of them replay. Log is the
	// opened newest journal, which the caller owns.
	Records   [][]byte
	LiveEpoch uint64
	Log       *storage.Log
}

// LoadDirState loads the newest checkpoint (LoadCheckpoint) and opens
// the journal chain on top of it for appending, truncating torn tails in
// place exactly as a restart must. Nothing is created or truncated when
// the checkpoint cannot be loaded.
func LoadDirState(dir string, workers int) (*DirState, error) {
	cp, err := LoadCheckpoint(dir, workers)
	if err != nil {
		return nil, err
	}
	records, live, log, err := OpenChain(dir, cp.Epoch)
	if err != nil {
		return nil, err
	}
	return &DirState{Checkpoint: *cp, Records: records, LiveEpoch: live, Log: log}, nil
}

// loadManifest reads and decodes one manifest and every segment it
// references, concurrently, and merges them with the manifest's base
// state. Any missing or corrupt file fails the whole checkpoint.
func loadManifest(dir string, epoch uint64, workers int) (*Checkpoint, error) {
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
	parts := len(m.SegEpochs)
	st := &object.StoreState{
		Classes: m.Base.Classes,
		Indexes: m.Base.Indexes,
		NextSur: m.Base.NextSur,
		Seq:     m.Base.Seq,
	}
	cp := &Checkpoint{Epoch: epoch, SegEpochs: m.SegEpochs, Store: st, Versions: m.Versions}
	if parts == 0 {
		return cp, nil
	}
	objs := make([][]object.ObjectRecord, parts)
	binds := make([][]object.BindingRecord, parts)
	errs := make([]error, parts)
	if workers > parts {
		workers = parts
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := w; p < parts; p += workers {
				name := SegmentFilename(m.SegEpochs[p], p)
				blob, err := storage.ReadSnapshot(filepath.Join(dir, name))
				if err == nil && blob == nil {
					err = errors.New("missing")
				}
				if err == nil {
					objs[p], binds[p], err = DecodeSegment(blob, p)
				}
				if err != nil {
					errs[p] = fmt.Errorf("%s: %w", name, err)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for p := 0; p < parts; p++ {
		st.Objects = append(st.Objects, objs[p]...)
		st.Bindings = append(st.Bindings, binds[p]...)
	}
	return cp, nil
}
