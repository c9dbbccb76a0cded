package object

import (
	"cadcam/internal/domain"
)

// The Export/Import API serializes store state for persistence snapshots.
// Export walks the live store; Import and ImportStream (import.go) rebuild
// an *empty* store from the records, reconstructing every index. Records
// are keyed by surrogate and linked in ascending surrogate order. Both
// forms are shard-agnostic: a snapshot taken from a store with one shard
// count imports cleanly into a store with another.

// ObjectRecord is the portable form of one object (or non-binding
// relationship object).
type ObjectRecord struct {
	Sur          domain.Surrogate
	TypeName     string
	IsRel        bool
	Parent       domain.Surrogate
	ParentSub    string
	OwnerClass   string
	ModSeq       uint64
	Attrs        map[string]domain.Value
	Participants map[string]domain.Value
}

// BindingRecord is the portable form of one inheritance binding. The
// system bookkeeping (TransmitterUpdates, LastUpdateSeq, AcknowledgedSeq)
// travels inside Attrs, exactly as earlier single-lock versions stored it.
type BindingRecord struct {
	Sur         domain.Surrogate
	RelType     string
	Transmitter domain.Surrogate
	Inheritor   domain.Surrogate
	Attrs       map[string]domain.Value
}

// ClassRecord describes a database-level class.
type ClassRecord struct {
	Name     string
	ElemType string
}

// IndexRecord describes a secondary-index definition. Only the definition
// persists: the postings are rebuilt deterministically on import.
type IndexRecord struct {
	Name       string
	ClassName  string
	AttrName   string
	CreatedSeq uint64
}

// StoreState is a complete logical snapshot of a store.
type StoreState struct {
	Classes  []ClassRecord
	Indexes  []IndexRecord
	Objects  []ObjectRecord
	Bindings []BindingRecord
	NextSur  uint64
	Seq      uint64
}

// Export captures the store's full state under all shard read locks. The
// result shares no mutable structure with the store (values are
// deep-copied).
func (s *Store) Export() *StoreState {
	s.rlockAll()
	defer s.runlockAll()
	return s.exportLocked()
}

// WithExclusive runs f while holding every shard and stripe write lock,
// passing a consistent export. No mutation (and hence no journal append)
// can run concurrently; the checkpointer uses this to pair a snapshot
// with a log rotation atomically.
func (s *Store) WithExclusive(f func(st *StoreState) error) error {
	s.lockAll()
	defer s.unlockAll()
	return f(s.exportLocked())
}

func (s *Store) exportLocked() *StoreState {
	return s.live().export(s.nextSur.Load(), s.seq.Load())
}

// export captures the state visible at the read point; nextSur and seq
// are the counters at that point.
func (r rd) export(nextSur, seq uint64) *StoreState {
	st := r.baseState(nextSur, seq)
	for _, sur := range r.surrogates() {
		st.Objects, st.Bindings = r.record(sur, st.Objects, st.Bindings)
	}
	return st
}

// baseState captures the non-partitioned part of the state at the read
// point: classes, index definitions and the counters, no records.
func (r rd) baseState(nextSur, seq uint64) *StoreState {
	st := &StoreState{NextSur: nextSur, Seq: seq}
	classes := r.classes()
	for _, name := range sortedNames(classes) {
		st.Classes = append(st.Classes, ClassRecord{Name: name, ElemType: classes[name].elemType})
	}
	st.Indexes = r.s.indexRecords(r.at)
	return st
}

// record appends sur's record as visible at the read point: a binding
// record for an inheritance binding's object, an object record otherwise.
func (r rd) record(sur domain.Surrogate, objs []ObjectRecord, binds []BindingRecord) ([]ObjectRecord, []BindingRecord) {
	o, _ := r.obj(sur)
	if o.binding != nil {
		return objs, append(binds, bindingRecord(sur, o.binding, r.at))
	}
	return append(objs, objectRecord(o, r.at)), binds
}

// exportShards captures a partitioned export at the read point: shard i
// carries records iff dirty[i]; marks[i] becomes its Mark.
func (r rd) exportShards(nextSur, seq uint64, marks []uint64, dirty []bool) *StoreExport {
	ex := &StoreExport{Base: r.baseState(nextSur, seq), Shards: make([]ShardExport, len(r.s.shards))}
	for i := range r.s.shards {
		se := &ex.Shards[i]
		se.Mark = marks[i]
		se.Exported = dirty[i]
		if !dirty[i] {
			continue
		}
		for _, sur := range r.shardSurrogates(i) {
			se.Objects, se.Bindings = r.record(sur, se.Objects, se.Bindings)
		}
	}
	return ex
}

// bindingRecord captures one binding as visible at sequence point at.
func bindingRecord(sur domain.Surrogate, b *Binding, at uint64) BindingRecord {
	attrs := copyBoxAttrsAt(b.Obj.attrMap(), at)
	if attrs == nil {
		attrs = make(map[string]domain.Value, 3)
	}
	k, _ := b.book.at(at)
	attrs[AttrTransmitterUpdates] = domain.Int(k.upd)
	attrs[AttrLastUpdateSeq] = domain.Int(k.last)
	attrs[AttrAcknowledgedSeq] = domain.Int(k.ack)
	return BindingRecord{
		Sur:         sur,
		RelType:     b.Rel.Name,
		Transmitter: b.Transmitter,
		Inheritor:   b.Inheritor,
		Attrs:       attrs,
	}
}

// objectRecord captures one object as visible at sequence point at.
func objectRecord(o *Object, at uint64) ObjectRecord {
	return ObjectRecord{
		Sur:          o.sur,
		TypeName:     o.typeName,
		IsRel:        o.isRel,
		Parent:       o.parent,
		ParentSub:    o.parentSub,
		OwnerClass:   o.ownerClass,
		ModSeq:       o.modAt(at),
		Attrs:        copyBoxAttrsAt(o.attrMap(), at),
		Participants: copyAttrs(o.participants),
	}
}

// dirtyMarks captures each shard's dirty mark and its dirtiness against
// baseline (nil or mismatched length: everything dirty). Callers hold the
// store-exclusive lock.
func (s *Store) dirtyMarks(baseline []uint64) (marks []uint64, dirty []bool) {
	marks = make([]uint64, len(s.shards))
	dirty = make([]bool, len(s.shards))
	full := len(baseline) != len(s.shards)
	for i := range s.shards {
		marks[i] = s.shards[i].dirty.Load()
		dirty[i] = full || marks[i] != baseline[i]
	}
	return marks, dirty
}

// ShardExport is one shard's slice of a partitioned export. Mark is the
// shard's dirty counter at capture time; Exported reports whether the
// record slices were populated (the shard changed relative to the
// caller's baseline) or skipped because the previous segment still
// describes it exactly.
type ShardExport struct {
	Mark     uint64
	Exported bool
	Objects  []ObjectRecord
	Bindings []BindingRecord
}

// StoreExport is a partitioned snapshot of the store: the base state
// (classes and counters, cheap, always present) plus one ShardExport per
// shard. Record slices are deep copies ordered by surrogate within each
// shard, so the caller may encode them after releasing the store locks.
type StoreExport struct {
	Base   *StoreState // Classes, NextSur, Seq only — no records
	Shards []ShardExport
}

// WithExclusiveExport runs f while holding every shard and stripe write
// lock, passing a partitioned export in which only shards whose dirty
// counter moved past the caller's baseline carry records. baseline holds
// the Mark values captured by the previous committed checkpoint; nil (or
// a length mismatch, e.g. after a shard-count change) exports every
// shard. Like WithExclusive, no mutation or journal append can run
// concurrently, so the checkpointer can pair the capture with a journal
// rotation atomically — and encode the records off-lock afterwards.
func (s *Store) WithExclusiveExport(baseline []uint64, f func(ex *StoreExport) error) error {
	s.lockAll()
	defer s.unlockAll()
	marks, dirty := s.dirtyMarks(baseline)
	return f(s.live().exportShards(s.nextSur.Load(), s.seq.Load(), marks, dirty))
}

func copyAttrs(m map[string]domain.Value) map[string]domain.Value {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]domain.Value, len(m))
	for k, v := range m {
		out[k] = v.Copy()
	}
	return out
}

// copyBoxAttrsAt deep-copies the attribute values visible at sequence
// point at, skipping slots that are absent (tombstoned) there.
func copyBoxAttrsAt(m map[string]*attrBox, at uint64) map[string]domain.Value {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]domain.Value, len(m))
	for k, b := range m {
		if v, ok := b.valueAt(at); ok {
			out[k] = v.Copy()
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
