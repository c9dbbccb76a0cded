package object

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"cadcam/internal/domain"
)

// The Export/Import API serializes store state for persistence snapshots.
// Export walks the live store; Import rebuilds an *empty* store from the
// records, reconstructing every index. Records are keyed by surrogate and
// imported in ascending surrogate order. Both forms are shard-agnostic:
// a snapshot taken from a store with one shard count imports cleanly into
// a store with another.

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
	st := s.baseStateLocked()
	for _, sur := range s.surrogatesLocked() {
		o, _ := s.obj(sur)
		if o.binding != nil {
			st.Bindings = append(st.Bindings, bindingRecord(sur, o.binding, liveSeq))
			continue
		}
		st.Objects = append(st.Objects, objectRecord(o, liveSeq))
	}
	return st
}

// liveSeq reads a version chain at its head: the live state.
const liveSeq = ^uint64(0)

// baseStateLocked captures the non-partitioned part of the state: classes
// and the global counters, no object or binding records.
func (s *Store) baseStateLocked() *StoreState {
	st := &StoreState{NextSur: s.nextSur.Load(), Seq: s.seq.Load()}
	classes := make(map[string]*Class)
	for i := range s.stripes {
		for name, cls := range s.stripes[i].classes {
			classes[name] = cls
		}
	}
	for _, name := range sortedNames(classes) {
		st.Classes = append(st.Classes, ClassRecord{Name: name, ElemType: classes[name].elemType})
	}
	st.Indexes = s.indexRecords(liveSeq)
	return st
}

// bindingRecord captures one binding as visible at sequence point at
// (liveSeq for the live state).
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
	ex := &StoreExport{Base: s.baseStateLocked(), Shards: make([]ShardExport, len(s.shards))}
	full := len(baseline) != len(s.shards)
	for i := range s.shards {
		sh := &s.shards[i]
		se := &ex.Shards[i]
		se.Mark = sh.dirty.Load()
		se.Exported = full || se.Mark != baseline[i]
		if !se.Exported {
			continue
		}
		surs := make([]domain.Surrogate, 0, len(sh.objects))
		for sur := range sh.objects {
			surs = append(surs, sur)
		}
		sort.Slice(surs, func(a, b int) bool { return surs[a] < surs[b] })
		for _, sur := range surs {
			o := sh.objects[sur]
			if o.binding != nil {
				se.Bindings = append(se.Bindings, bindingRecord(sur, o.binding, liveSeq))
				continue
			}
			se.Objects = append(se.Objects, objectRecord(o, liveSeq))
		}
	}
	return f(ex)
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

// Import rebuilds the state into an empty store. It fails if the store
// already holds objects or if the state is inconsistent with the catalog.
func (s *Store) Import(st *StoreState) error {
	return s.ImportParallel(st, 1)
}

// importObject validates one object record and inserts the rebuilt object
// into its shard map. Safe to run concurrently for records owned by
// *different shards* while the coordinating goroutine holds all write
// locks: each worker touches only its own shards' maps, and the catalog
// lookups are read-only.
func (s *Store) importObject(r *ObjectRecord) error {
	if _, dup := s.obj(r.Sur); dup {
		return fmt.Errorf("object: duplicate surrogate %s in snapshot", r.Sur)
	}
	if r.IsRel {
		if _, ok := s.cat.RelType(r.TypeName); !ok {
			return fmt.Errorf("%w: %q", ErrNoSuchType, r.TypeName)
		}
	} else if _, ok := s.cat.ObjectType(r.TypeName); !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchType, r.TypeName)
	}
	o := &Object{
		sur:          r.Sur,
		typeName:     r.TypeName,
		isRel:        r.IsRel,
		parent:       r.Parent,
		parentSub:    r.ParentSub,
		ownerClass:   r.OwnerClass,
		participants: copyAttrs(r.Participants),
	}
	if r.ModSeq != 0 {
		o.mod.head.Store(&vnode[struct{}]{at: r.ModSeq})
	}
	o.initClasses()
	o.initAttrs(copyAttrs(r.Attrs), 0)
	s.shardOf(r.Sur).objects[r.Sur] = o
	return nil
}

// ImportParallel is Import with the object-construction phase — the deep
// copies of every attribute map, the bulk of a large import's CPU cost —
// fanned out over up to `workers` goroutines, one set of shards each
// (workers <= 0 uses GOMAXPROCS). Linking, bindings and index rebuilding
// stay serial: they cross shards. The imported state is identical to a
// serial Import's for any worker count.
func (s *Store) ImportParallel(st *StoreState, workers int) error {
	s.lockAll()
	defer s.unlockAll()
	for i := range s.shards {
		if len(s.shards[i].objects) != 0 {
			return fmt.Errorf("object: Import needs an empty store")
		}
	}
	for _, c := range st.Classes {
		stripe := s.stripeOf(c.Name)
		if _, dup := stripe.classes[c.Name]; dup {
			return fmt.Errorf("object: duplicate class %q in snapshot", c.Name)
		}
		stripe.classes[c.Name] = newClass(c.Name, c.ElemType)
	}
	// Objects in ascending surrogate order so parents precede subobjects
	// is NOT guaranteed in general; link classes in a second pass.
	recs := append([]ObjectRecord(nil), st.Objects...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Sur < recs[j].Sur })
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(s.shards) {
		workers = len(s.shards)
	}
	if workers <= 1 || len(recs) < 1024 {
		for i := range recs {
			if err := s.importObject(&recs[i]); err != nil {
				return err
			}
		}
	} else {
		// Partition records by owning shard; worker w handles shards
		// w, w+workers, ... so no two goroutines touch one shard map.
		byShard := make([][]int, len(s.shards))
		for i := range recs {
			si := s.shardIndex(recs[i].Sur)
			byShard[si] = append(byShard[si], i)
		}
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for si := w; si < len(byShard); si += workers {
					for _, i := range byShard[si] {
						if err := s.importObject(&recs[i]); err != nil {
							errs[w] = err
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	// Second pass: class membership and participant index.
	for _, r := range recs {
		o, _ := s.obj(r.Sur)
		if r.OwnerClass != "" {
			cls, ok := s.lookupClass(r.OwnerClass)
			if !ok {
				return fmt.Errorf("%w: %q", ErrNoSuchClass, r.OwnerClass)
			}
			cls.add(r.Sur, 0)
		}
		if r.Parent != 0 {
			po, ok := s.obj(r.Parent)
			if !ok {
				return fmt.Errorf("object: snapshot parent %s missing", r.Parent)
			}
			if err := s.linkSubobjectLocked(po, o); err != nil {
				return err
			}
		}
		for _, v := range o.participants {
			s.indexParticipantLocked(o.sur, v)
		}
	}
	// Bindings. The bookkeeping attributes move from the record's attr map
	// into the binding book.
	brecs := append([]BindingRecord(nil), st.Bindings...)
	sort.Slice(brecs, func(i, j int) bool { return brecs[i].Sur < brecs[j].Sur })
	for _, r := range brecs {
		rel, ok := s.cat.InherRelType(r.RelType)
		if !ok {
			return fmt.Errorf("%w: %q", ErrNoSuchType, r.RelType)
		}
		if _, ok := s.obj(r.Transmitter); !ok {
			return fmt.Errorf("object: snapshot transmitter %s missing", r.Transmitter)
		}
		if _, ok := s.obj(r.Inheritor); !ok {
			return fmt.Errorf("object: snapshot inheritor %s missing", r.Inheritor)
		}
		attrs := copyAttrs(r.Attrs)
		if attrs == nil {
			attrs = make(map[string]domain.Value)
		}
		obj := &Object{
			sur:      r.Sur,
			typeName: r.RelType,
			isRel:    true,
			participants: map[string]domain.Value{
				"Transmitter": domain.Ref(r.Transmitter),
				"Inheritor":   domain.Ref(r.Inheritor),
			},
		}
		b := &Binding{Obj: obj, Rel: rel, Transmitter: r.Transmitter, Inheritor: r.Inheritor}
		b.book.put(0, bookkeeping{
			upd:  takeInt(attrs, AttrTransmitterUpdates),
			last: takeInt(attrs, AttrLastUpdateSeq),
			ack:  takeInt(attrs, AttrAcknowledgedSeq),
		}, 0)
		obj.binding = b
		obj.initClasses()
		obj.initAttrs(attrs, 0)
		if _, dup := s.obj(r.Sur); dup {
			return fmt.Errorf("object: duplicate surrogate %s in snapshot", r.Sur)
		}
		if s.bindingLocked(r.Inheritor, r.RelType) != nil {
			return fmt.Errorf("object: duplicate binding for %s in %s", r.Inheritor, r.RelType)
		}
		s.shardOf(r.Sur).objects[r.Sur] = obj
		s.indexBinding(b, 0, with)
	}
	s.nextSur.Store(st.NextSur)
	s.seq.Store(st.Seq)
	if err := s.seedIndexState(st.Indexes); err != nil {
		return err
	}
	s.seedSnapshotState()
	s.bumpAllEpochs()
	return nil
}

// takeInt removes an integer bookkeeping attribute from the map and
// returns its value (0 when absent or non-integer).
func takeInt(m map[string]domain.Value, key string) int64 {
	v, ok := m[key]
	if !ok {
		return 0
	}
	delete(m, key)
	if n, ok := v.(domain.Int); ok {
		return int64(n)
	}
	return 0
}

// linkSubobjectLocked re-registers a subobject in its parent's subclass
// or sub-relationship class during import.
func (s *Store) linkSubobjectLocked(parent, child *Object) error {
	name := child.parentSub
	if child.isRel {
		cls, ok := parent.relMap()[name]
		if !ok {
			cls = newClass(name, child.typeName)
			parent.putSubrel(name, cls)
		}
		cls.add(child.sur, 0)
		return nil
	}
	cls, ok := parent.subMap()[name]
	if !ok {
		cls = newClass(name, child.typeName)
		parent.putSub(name, cls)
	}
	cls.add(child.sur, 0)
	return nil
}
