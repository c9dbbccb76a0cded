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

// BindingRecord is the portable form of one inheritance binding: Attrs
// holds the relationship's own attributes, and the system bookkeeping
// (TransmitterUpdates, LastUpdateSeq, AcknowledgedSeq) has its own
// fields.
type BindingRecord struct {
	Sur         domain.Surrogate
	RelType     string
	Transmitter domain.Surrogate
	Inheritor   domain.Surrogate
	Attrs       map[string]domain.Value
	Updates     int64
	LastSeq     int64
	AckSeq      int64
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

// Export captures the full store state at the read point. The result
// shares no mutable structure with the store (values are deep-copied). A
// live export takes every shard read lock. A pinned one takes none, and
// is byte-for-byte the state a serial replay of the journal truncated at
// the pin would export (for failure-free histories, whose surrogate
// counter never burns allocations).
func (r View) Export() *StoreState {
	if r.isLive() {
		r.s.rlockAll()
		defer r.s.runlockAll()
		return r.export(r.s.nextSur.Load(), r.s.seq.Load())
	}
	return r.export(r.pin.nextSur, r.at)
}

// export captures the state visible at the read point; nextSur and seq
// are the counters at that point.
func (r View) export(nextSur, seq uint64) *StoreState {
	st := r.baseState(nextSur, seq)
	for _, sur := range r.surrogates() {
		o, _ := r.obj(sur)
		st.Objects, st.Bindings = r.record(o, st.Objects, st.Bindings)
	}
	return st
}

// baseState captures the non-partitioned part of the state at the read
// point: classes, index definitions and the counters, no records.
func (r View) baseState(nextSur, seq uint64) *StoreState {
	st := &StoreState{NextSur: nextSur, Seq: seq}
	classes := r.classes()
	for _, name := range sortedNames(classes) {
		st.Classes = append(st.Classes, ClassRecord{Name: name, ElemType: classes[name].elemType})
	}
	st.Indexes = r.s.indexRecords(r.at)
	return st
}

// record appends o's record as visible at the read point: a binding
// record for an inheritance binding's object, an object record otherwise.
func (r View) record(o *Object, objs []ObjectRecord, binds []BindingRecord) ([]ObjectRecord, []BindingRecord) {
	if o.binding != nil {
		return objs, append(binds, bindingRecord(o.sur, o.binding, r.at))
	}
	return append(objs, objectRecord(o, r.at)), binds
}

// Base captures the non-partitioned state at the pin: classes, index
// definitions and the counters, no records.
func (sn *Snapshot) Base() *StoreState { return sn.baseState(sn.nextSur, sn.at) }

// ExportShard appends the records of shard k visible at the pin to objs
// and binds, in ascending surrogate order, and returns them. Lock-free
// like every pinned read: the checkpointer's encode workers call it with
// writers running, one shard at a time, each reusing its own slices, so
// a checkpoint holds one shard's records per worker, never the store's.
func (sn *Snapshot) ExportShard(k int, objs []ObjectRecord, binds []BindingRecord) ([]ObjectRecord, []BindingRecord) {
	sn.s.shards[k].objs.each(func(_ uint64, o *Object) {
		if o.visibleAt(sn.at) {
			objs, binds = sn.record(o, objs, binds)
		}
	})
	return objs, binds
}

// bindingRecord captures one binding as visible at sequence point at.
func bindingRecord(sur domain.Surrogate, b *Binding, at uint64) BindingRecord {
	k, _ := b.book.at(at)
	return BindingRecord{
		Sur:         sur,
		RelType:     b.Rel.Name,
		Transmitter: b.Transmitter,
		Inheritor:   b.Inheritor,
		Attrs:       copyAttrsAt(b.Obj, at),
		Updates:     k.upd,
		LastSeq:     k.last,
		AckSeq:      k.ack,
	}
}

// objectRecord captures one object as visible at sequence point at.
func objectRecord(o *Object, at uint64) ObjectRecord {
	return ObjectRecord{
		Sur:          o.sur,
		TypeName:     o.lay.name,
		IsRel:        o.lay.isRel,
		Parent:       o.parent,
		ParentSub:    o.parentSub,
		OwnerClass:   o.className(),
		ModSeq:       o.modAt(at),
		Attrs:        copyAttrsAt(o, at),
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

// copyAttrsAt deep-copies o's own attribute values visible at sequence
// point at, by name, skipping slots that are empty (or tombstoned) there.
func copyAttrsAt(o *Object, at uint64) map[string]domain.Value {
	var out map[string]domain.Value
	for i := range o.attrs {
		if v, ok := o.attrAt(i, at); ok {
			if out == nil {
				out = make(map[string]domain.Value, len(o.attrs)-i)
			}
			out[o.lay.attrs[i].Name] = v.Copy()
		}
	}
	return out
}
