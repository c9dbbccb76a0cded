package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"cadcam/internal/oplog"
	"cadcam/internal/storage"
)

// WALFilename, ManifestFilename and SegmentFilename name the epoch files
// a persistent database keeps in its directory. They live here (rather
// than in the database facade) because everything that walks a
// directory's journal chain — recovery, journal scanning, and the
// replication shipper — shares this package.
//
// WALFilename returns the journal file name of an epoch.
func WALFilename(epoch uint64) string { return fmt.Sprintf("wal-%08d.log", epoch) }

// ManifestFilename returns the checkpoint manifest file name of an epoch.
func ManifestFilename(epoch uint64) string { return fmt.Sprintf("manifest-%08d.mf", epoch) }

// SegmentFilename returns the file name of shard partition `part`'s
// segment encoded at an epoch.
func SegmentFilename(epoch uint64, part int) string {
	return fmt.Sprintf("seg-%08d-p%03d.seg", epoch, part)
}

// ChainPos addresses a frame boundary in a directory's journal chain: a
// journal epoch and a byte offset within that epoch's log. The zero
// value is the start of epoch 0 — the beginning of history for a
// directory that has never checkpointed.
type ChainPos struct {
	Epoch  uint64
	Offset int64
}

// ChainFrame is one sealed group-commit frame read from the chain,
// tagged with the epoch it came from. End is the reader's next offset
// within that epoch.
type ChainFrame struct {
	Epoch       uint64
	Offset, End int64
	Records     [][]byte
}

// ErrChainGap reports that the journal chain no longer contains the
// requested position: the file was garbage-collected after a checkpoint
// (or the directory was rebuilt), so a tailer must resynchronize from
// the newest checkpoint instead of reading forward.
var ErrChainGap = errors.New("wal: journal chain gap")

// TailFrames reads every sealed frame of the journal chain at or after
// pos, following the chain across epochs, and returns the frames plus
// the position a later call should resume from. It never writes: torn
// tails are left in place (the primary may still be completing them) and
// simply not returned. Safe to call concurrently with a live primary
// appending to and checkpointing the same directory.
//
// The epoch-advance rule relies on the checkpoint protocol: a checkpoint
// flushes the group-commit pipeline into epoch e *before* creating
// wal-(e+1), so once the next epoch's file exists, epoch e is complete.
// The existence check runs before the scan — if wal-(e+1) appears only
// after the scan started, this call stays on epoch e and the next call
// advances.
func TailFrames(dir string, pos ChainPos) ([]ChainFrame, ChainPos, error) {
	var out []ChainFrame
	for {
		_, nerr := os.Stat(filepath.Join(dir, WALFilename(pos.Epoch+1)))
		nextExists := nerr == nil
		frames, end, err := storage.ReadFrames(filepath.Join(dir, WALFilename(pos.Epoch)), pos.Offset)
		if errors.Is(err, os.ErrNotExist) {
			if pos.Offset > 0 || chainAhead(dir, pos.Epoch) {
				return out, pos, fmt.Errorf("%w: %s missing", ErrChainGap, WALFilename(pos.Epoch))
			}
			return out, pos, nil // nothing journaled yet
		}
		if err != nil {
			return out, pos, err
		}
		for _, fr := range frames {
			out = append(out, ChainFrame{Epoch: pos.Epoch, Offset: fr.Offset, End: fr.End, Records: fr.Records})
		}
		pos.Offset = end
		if !nextExists {
			return out, pos, nil
		}
		pos = ChainPos{Epoch: pos.Epoch + 1}
	}
}

// chainAhead reports whether the directory holds any journal of an epoch
// newer than `epoch` — the signature of a chain that moved past a
// garbage-collected position.
func chainAhead(dir string, epoch uint64) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		var n uint64
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.log", &n); err == nil && n > epoch {
			return true
		}
	}
	return false
}

// OpenChain opens the journal chain rooted at epoch `start` for
// recovery: wal-(start), wal-(start+1), ... while the next file exists,
// truncating each torn tail in place, and returns the concatenated
// records in append order, the newest (live) epoch, and its opened log —
// which the caller owns and hands to the group committer. This is the
// writing twin of TailFrames: both derive their batch boundaries from
// storage.ScanFrames, so recovery and the replication shipper always
// agree on what the chain contains.
//
// Before anything is truncated, every log of the chain must open with a
// format record (oplog.FormatVersion); a journal in another record
// format fails with an error wrapping oplog.ErrFormat and leaves every
// file as it was.
func OpenChain(dir string, start uint64) ([][]byte, uint64, *storage.Log, error) {
	if err := checkFormat(dir, start); err != nil {
		return nil, 0, nil, err
	}
	log, records, err := storage.OpenLog(filepath.Join(dir, WALFilename(start)))
	if err != nil {
		return nil, 0, nil, err
	}
	live := start
	for {
		next := filepath.Join(dir, WALFilename(live+1))
		if _, serr := os.Stat(next); serr != nil {
			break
		}
		nlog, nrecs, err := storage.OpenLog(next)
		if err != nil {
			log.Close()
			return nil, 0, nil, err
		}
		if err := log.Close(); err != nil {
			nlog.Close()
			return nil, 0, nil, err
		}
		log = nlog
		live++
		records = append(records, nrecs...)
	}
	return records, live, log, nil
}

// checkFormat reads the first record of each log of the chain rooted at
// start, without writing, and fails unless each opens with a format
// record of this version. A log in the 8-byte frame layout of an earlier
// release fails the same way. A log without an intact frame passes: it
// holds nothing to misread.
func checkFormat(dir string, start uint64) error {
	for e := start; ; e++ {
		first, err := storage.ReadFirst(filepath.Join(dir, WALFilename(e)))
		if errors.Is(err, storage.ErrLegacyFrame) {
			return fmt.Errorf("wal: %s: %w: %w", WALFilename(e), oplog.ErrFormat, err)
		}
		if errors.Is(err, os.ErrNotExist) {
			if e > start {
				return nil
			}
			continue // OpenChain creates the first log
		}
		if err != nil {
			return err
		}
		if first == nil {
			continue
		}
		if _, err := new(oplog.Decoder).Decode(first); err != nil {
			return fmt.Errorf("wal: %s: %w", WALFilename(e), err)
		}
	}
}
