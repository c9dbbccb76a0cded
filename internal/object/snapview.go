package object

import "time"

// Snapshot reads: a Snapshot embeds its View at the pinned sequence
// point, whose reads call the same lookup, inheritance walks and entry
// points as the live store's View at liveSeq (read.go): objects come from
// the shards' object tables gated by visibleAt, and every version chain —
// attribute slots, bookkeeping, modSeq, the binding lists and class
// membership — is read at the pin. No lock is taken.
//
// The resolution route cache is shared with live reads: a memoized route
// whose recorded binding-list nodes are the ones each hop's list held at
// the pin describes the walk at the pin, so the snapshot may follow it and
// read the owner's slot at the pinned sequence. Resolutions at the pin are
// not memoized — they describe the pinned past, not the live present.

// pinLocked registers a pin at the current sequence point. The caller
// holds all shard locks (read or write), so the pin lands between
// operations.
func (s *Store) pinLocked() *Snapshot {
	sn := &Snapshot{nextSur: s.nextSur.Load()}
	sn.View = View{s: s, at: s.seq.Load(), pin: sn}
	m := &s.mvcc
	m.mu.Lock()
	if m.pins == nil {
		m.pins = make(map[*Snapshot]uint64)
	}
	m.pins[sn] = sn.at
	m.taken.Add(1)
	m.recalcLocked()
	m.mu.Unlock()
	return sn
}

// PinnedCheckpoint is what PinCheckpoint captures under the store's
// exclusive lock: a pinned snapshot plus each shard's dirty mark and its
// dirtiness against the caller's baseline. Off the lock, the caller
// exports every shard with Dirty[k] set through Snap.ExportShard(k),
// takes the counters and classes from Snap.Base, adopts Marks as its
// next baseline once the checkpoint commits, and must Release the
// snapshot as soon as the last shard is exported.
type PinnedCheckpoint struct {
	Snap  *Snapshot
	Marks []uint64
	Dirty []bool
	// LockHoldNs is the wall time the store-exclusive lock was held:
	// inLock (journal rotation) plus the mark capture and pin. The record
	// encoding this used to cover happens off-lock on the snapshot.
	LockHoldNs int64
}

// PinCheckpoint runs inLock under every shard and stripe write lock (the
// checkpointer rotates the journal there), captures each shard's dirty
// mark and its dirtiness against baseline (nil or mismatched length:
// everything dirty), and pins a snapshot — all atomically with respect to
// mutations. Writers resume as soon as it returns; the caller exports the
// dirty shards' records from the pinned snapshot concurrently with them.
// An inLock error aborts without pinning.
func (s *Store) PinCheckpoint(baseline []uint64, inLock func() error) (*PinnedCheckpoint, error) {
	s.lockAll()
	start := time.Now()
	if err := inLock(); err != nil {
		s.unlockAll()
		return nil, err
	}
	pc := &PinnedCheckpoint{}
	pc.Marks, pc.Dirty = s.dirtyMarks(baseline)
	pc.Snap = s.pinLocked()
	hold := time.Since(start).Nanoseconds()
	s.unlockAll()
	pc.LockHoldNs = hold
	return pc, nil
}
