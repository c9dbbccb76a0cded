package object

import (
	"time"

	"cadcam/internal/domain"
	"cadcam/internal/schema"
)

// Snapshot reads: every method is the store's own read at the pinned
// sequence point. sn.rd() is the read context at the pin, and the methods
// call the same lookup, inheritance walks and entry points as the live
// store (read.go), which reads at liveSeq: objects come from the shards'
// object tables gated by visibleAt, and every version chain — attribute
// slots, bookkeeping, modSeq, the binding lists and class membership — is
// read at the pin. No lock is taken.
//
// The resolution route cache is shared with live reads: a memoized route
// whose stamps equal the snapshot's pin-time epochs was valid exactly at
// the pin, so the snapshot may follow it and read the owner's slot at the
// pinned sequence. Resolutions at the pin are not memoized — they describe
// the pinned past, not the live present.

// Exists reports whether the surrogate denoted a live object at the pin.
func (sn *Snapshot) Exists(sur domain.Surrogate) bool {
	_, ok := sn.rd().obj(sur)
	return ok
}

// TypeOf returns the type name of an object visible at the pin.
func (sn *Snapshot) TypeOf(sur domain.Surrogate) (string, error) { return sn.rd().typeOf(sur) }

// Get returns the object visible at the pin. Only the immutable identity
// accessors (Surrogate, TypeName, IsRelationship, Parent, ParentSubclass)
// are meaningful on the result; attribute state must be read through the
// snapshot's own methods.
func (sn *Snapshot) Get(sur domain.Surrogate) (*Object, error) { return sn.rd().get(sur) }

// ModSeq returns the object's modification sequence as of the pin.
func (sn *Snapshot) ModSeq(sur domain.Surrogate) (uint64, error) { return sn.rd().modSeq(sur) }

// Catalog returns the schema catalog (immutable, shared with the store).
func (sn *Snapshot) Catalog() *schema.Catalog { return sn.s.cat }

// Surrogates returns the surrogates visible at the pin, ascending.
func (sn *Snapshot) Surrogates() []domain.Surrogate { return sn.rd().surrogates() }

// BindingsOfInheritor returns the bindings in which the object was the
// inheritor at the pin, keyed by relationship type name.
func (sn *Snapshot) BindingsOfInheritor(inheritor domain.Surrogate) map[string]*Binding {
	return sn.rd().bindingsOfInheritor(inheritor)
}

// BindingsOfTransmitter returns the bindings in which the object was the
// transmitter at the pin.
func (sn *Snapshot) BindingsOfTransmitter(transmitter domain.Surrogate) []*Binding {
	return sn.rd().bindingsOfTransmitter(transmitter)
}

// GetAttr reads an attribute at the pin with the same resolution rule,
// and through the same entry point, as the live Store.GetAttr.
func (sn *Snapshot) GetAttr(sur domain.Surrogate, name string) (domain.Value, error) {
	return sn.rd().attrOf(sur, name)
}

// Members lists a local subclass at the pin, following inheritance, with
// the live Members' semantics.
func (sn *Snapshot) Members(sur domain.Surrogate, name string) ([]domain.Surrogate, error) {
	return sn.rd().membersOf(sur, name)
}

// Class lists a database-level class extent at the pin.
func (sn *Snapshot) Class(name string) ([]domain.Surrogate, error) {
	return sn.rd().classMembers(name)
}

// ClassNames lists the database-level classes that existed at the pin,
// sorted.
func (sn *Snapshot) ClassNames() []string { return sortedNames(sn.rd().classes()) }

// Export captures the full store state as of the pin without taking any
// store lock. The result is byte-for-byte the state a serial replay of the
// journal truncated at the pinned sequence would export (for failure-free
// histories, whose surrogate counter never burns allocations).
func (sn *Snapshot) Export() *StoreState {
	return sn.rd().export(sn.nextSur, sn.seq)
}

// ExportShards captures a partitioned export as of the pin, lock-free:
// shard i carries records iff dirty[i]; marks[i] becomes its Mark. The
// checkpointer captures marks and dirtiness under the rotation lock (see
// PinCheckpoint) and encodes the records here, with writers running.
func (sn *Snapshot) ExportShards(marks []uint64, dirty []bool) *StoreExport {
	return sn.rd().exportShards(sn.nextSur, sn.seq, marks, dirty)
}

// pinLocked registers a pin at the current sequence point. The caller
// holds all shard locks (read or write), so the pin lands between
// operations.
func (s *Store) pinLocked() *Snapshot {
	sn := &Snapshot{s: s}
	sn.refs.Store(1)
	sn.seq = s.seq.Load()
	sn.nextSur = s.nextSur.Load()
	sn.epochs = make([]uint64, len(s.shards))
	for i := range s.shards {
		sn.epochs[i] = s.shards[i].epoch.Load()
	}
	m := &s.mvcc
	m.mu.Lock()
	if m.pins == nil {
		m.pins = make(map[*Snapshot]uint64)
	}
	m.pins[sn] = sn.seq
	m.taken.Add(1)
	m.recalcLocked()
	m.mu.Unlock()
	return sn
}

// PinnedCheckpoint is what PinCheckpoint captures under the store's
// exclusive lock: a pinned snapshot plus the per-shard dirty marks and
// the dirtiness verdicts against the caller's baseline. The caller
// encodes the actual records off-lock via Snap.ExportShards(Marks-order)
// and must Release the snapshot when done.
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
