package object

import (
	"fmt"
	"sort"
	"time"

	"cadcam/internal/domain"
	"cadcam/internal/schema"
)

// Snapshot reads: every method resolves against the version chains at the
// pinned sequence point, lock-free. The methods mirror the store's locked
// read paths (mutate.go) with two substitutions:
//
//   - objects come from the shards' snapObjs maps, gated by visibleAt;
//   - every version chain — attribute slots, bookkeeping, modSeq, the
//     binding lists and class membership — is read at the pin instead
//     of at its head.
//
// The resolution route cache is shared with live reads on the fast path: a
// memoized route whose stamps equal the snapshot's pin-time epochs was
// valid exactly at the pin, so the snapshot may follow it and read the
// owner's slot at the pinned sequence. Slow-path resolutions are not
// memoized — they describe the pinned past, not the live present.

// obj returns the object visible at the pin, if any.
func (sn *Snapshot) obj(sur domain.Surrogate) (*Object, bool) {
	v, ok := sn.s.shardOf(sur).snapObjs.Load(sur)
	if !ok {
		return nil, false
	}
	o := v.(*Object)
	if !o.visibleAt(sn.seq) {
		return nil, false
	}
	return o, true
}

// Exists reports whether the surrogate denoted a live object at the pin.
func (sn *Snapshot) Exists(sur domain.Surrogate) bool {
	_, ok := sn.obj(sur)
	return ok
}

// TypeOf returns the type name of an object visible at the pin.
func (sn *Snapshot) TypeOf(sur domain.Surrogate) (string, error) {
	o, ok := sn.obj(sur)
	if !ok {
		return "", noObject(sur)
	}
	return o.typeName, nil
}

// Get returns the object visible at the pin. Only the immutable identity
// accessors (Surrogate, TypeName, IsRelationship, Parent, ParentSubclass)
// are meaningful on the result; attribute state must be read through the
// snapshot's own methods.
func (sn *Snapshot) Get(sur domain.Surrogate) (*Object, error) {
	o, ok := sn.obj(sur)
	if !ok {
		return nil, noObject(sur)
	}
	return o, nil
}

// ModSeq returns the object's modification sequence as of the pin.
func (sn *Snapshot) ModSeq(sur domain.Surrogate) (uint64, error) {
	o, ok := sn.obj(sur)
	if !ok {
		return 0, noObject(sur)
	}
	return o.modAt(sn.seq), nil
}

// Catalog returns the schema catalog (immutable, shared with the store).
func (sn *Snapshot) Catalog() *schema.Catalog { return sn.s.cat }

// Surrogates returns the surrogates visible at the pin, ascending.
func (sn *Snapshot) Surrogates() []domain.Surrogate {
	var out []domain.Surrogate
	for i := range sn.s.shards {
		out = sn.visibleIn(i, out)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// visibleIn appends the surrogates of shard i visible at the pin.
func (sn *Snapshot) visibleIn(i int, out []domain.Surrogate) []domain.Surrogate {
	sn.s.shards[i].snapObjs.Range(func(k, v any) bool {
		if v.(*Object).visibleAt(sn.seq) {
			out = append(out, k.(domain.Surrogate))
		}
		return true
	})
	return out
}

// binding finds o's binding as inheritor under a relationship type as of
// the pin.
func (sn *Snapshot) binding(o *Object, relType string) *Binding {
	l, _ := o.bindIn.at(sn.seq)
	return byRel(l, relType)
}

// BindingsOfInheritor returns the bindings in which the object was the
// inheritor at the pin, keyed by relationship type name.
func (sn *Snapshot) BindingsOfInheritor(inheritor domain.Surrogate) map[string]*Binding {
	var l []*Binding
	if o, ok := sn.obj(inheritor); ok {
		l, _ = o.bindIn.at(sn.seq)
	}
	return relMapOf(l)
}

// BindingsOfTransmitter returns the bindings in which the object was the
// transmitter at the pin.
func (sn *Snapshot) BindingsOfTransmitter(transmitter domain.Surrogate) []*Binding {
	if o, ok := sn.obj(transmitter); ok {
		l, _ := o.bindOut.at(sn.seq)
		return append([]*Binding(nil), l...)
	}
	return nil
}

// routeValid reports whether a memoized route was valid at the pin: every
// shard its chain crosses still had its pin-time epoch when the route was
// resolved, so the route describes the pinned topology exactly.
func (sn *Snapshot) routeValid(r *route) bool {
	for _, st := range r.stamps {
		if sn.epochs[st.shard] != st.epoch {
			return false
		}
	}
	return true
}

// GetAttr reads an attribute at the pin with the same resolution rule as
// the live Store.GetAttr, entirely lock-free. A route memoized by live
// readers serves as the fast path when it matches the pin-time epochs;
// otherwise the inheritance chain is walked against the snapshot indexes.
func (sn *Snapshot) GetAttr(sur domain.Surrogate, name string) (domain.Value, error) {
	if r, ok := loadRoute(&sn.s.shardOf(sur).routes.attrs, sur, name); ok && sn.routeValid(r) {
		sn.s.shardOf(sur).hits.Add(1)
		if r.owner == nil {
			return domain.NullValue, nil
		}
		if b, ok := r.owner.attrMap()[name]; ok {
			if v, ok := b.valueAt(sn.seq); ok {
				return v, nil
			}
		}
		return domain.NullValue, nil
	}
	o, ok := sn.obj(sur)
	if !ok {
		return nil, noObject(sur)
	}
	if name == "Surrogate" {
		return domain.Ref(o.sur), nil
	}
	if o.isRel {
		return sn.s.relAttrAt(o, name, sn.seq)
	}
	return sn.resolveAttr(o, name)
}

// ownAttr reads o's own attribute slot at the pin (null when absent).
func (sn *Snapshot) ownAttr(o *Object, name string) domain.Value {
	if b, ok := o.attrMap()[name]; ok {
		if v, ok := b.valueAt(sn.seq); ok {
			return v
		}
	}
	return domain.NullValue
}

// resolveAttr walks the inheritance chain at the pin: bindings come from
// the objects' binding lists, values from the owner's slot at the pinned
// sequence. Mirrors resolveAttrLocked without memoization.
func (sn *Snapshot) resolveAttr(o *Object, name string) (domain.Value, error) {
	cur := o
	for {
		eff, err := sn.s.effectiveLocked(cur)
		if err != nil {
			return nil, err
		}
		a, ok := eff.Attr(name)
		if !ok {
			return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchAttribute, cur.typeName, name)
		}
		if !a.Inherited() {
			return sn.ownAttr(cur, name), nil
		}
		b := sn.binding(cur, a.Via)
		if b == nil {
			return domain.NullValue, nil
		}
		t, ok := sn.obj(b.Transmitter)
		if !ok {
			return domain.NullValue, nil
		}
		cur = t
	}
}

// Members lists a local subclass at the pin, following inheritance, with
// the live Members' semantics. The shared route cache serves hits that
// match the pin-time epochs.
func (sn *Snapshot) Members(sur domain.Surrogate, name string) ([]domain.Surrogate, error) {
	if r, ok := loadRoute(&sn.s.shardOf(sur).routes.members, sur, name); ok && sn.routeValid(r) {
		sn.s.shardOf(sur).hits.Add(1)
		if r.cls == nil {
			return nil, nil
		}
		return copySurs(r.cls.membersAt(sn.seq)), nil
	}
	o, ok := sn.obj(sur)
	if !ok {
		return nil, noObject(sur)
	}
	if cls, ok := o.relMap()[name]; ok {
		return copySurs(cls.membersAt(sn.seq)), nil
	}
	if o.isRel {
		if cls, ok := o.subMap()[name]; ok {
			return copySurs(cls.membersAt(sn.seq)), nil
		}
		if sn.s.cat.RelMemberName(o.typeName, name) {
			return nil, nil
		}
		return nil, fmt.Errorf("%w: %s has no subclass %q", ErrNoSuchClass, o.typeName, name)
	}
	return sn.resolveMembers(o, name)
}

// resolveMembers mirrors resolveMembersLocked against the snapshot
// indexes, without memoization.
func (sn *Snapshot) resolveMembers(o *Object, name string) ([]domain.Surrogate, error) {
	cur := o
	for {
		eff, err := sn.s.effectiveLocked(cur)
		if err != nil {
			return nil, err
		}
		sd, ok := eff.SubclassByName(name)
		if !ok {
			for _, sr := range eff.Type.SubRels {
				if sr.Name == name {
					return nil, nil // declared but no members yet
				}
			}
			return nil, fmt.Errorf("%w: %s has no subclass %q", ErrNoSuchClass, cur.typeName, name)
		}
		if !sd.Inherited() {
			if cls, ok := cur.subMap()[name]; ok {
				return copySurs(cls.membersAt(sn.seq)), nil
			}
			return nil, nil
		}
		b := sn.binding(cur, sd.Via)
		if b == nil {
			return nil, nil
		}
		t, ok := sn.obj(b.Transmitter)
		if !ok {
			return nil, nil
		}
		cur = t
	}
}

// Class lists a database-level class extent at the pin.
func (sn *Snapshot) Class(name string) ([]domain.Surrogate, error) {
	v, ok := sn.s.snapClasses.Load(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchClass, name)
	}
	c := v.(*Class)
	if c.createdSeq > sn.seq {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchClass, name)
	}
	return copySurs(c.membersAt(sn.seq)), nil
}

// ClassNames lists the database-level classes that existed at the pin,
// sorted.
func (sn *Snapshot) ClassNames() []string {
	var names []string
	sn.s.snapClasses.Range(func(k, v any) bool {
		if v.(*Class).createdSeq <= sn.seq {
			names = append(names, k.(string))
		}
		return true
	})
	sort.Strings(names)
	return names
}

func copySurs(surs []domain.Surrogate) []domain.Surrogate {
	if len(surs) == 0 {
		return nil
	}
	return append([]domain.Surrogate(nil), surs...)
}

// baseState captures the classes and counters as of the pin, lock-free.
func (sn *Snapshot) baseState() *StoreState {
	st := &StoreState{NextSur: sn.nextSur, Seq: sn.seq}
	classes := make(map[string]*Class)
	sn.s.snapClasses.Range(func(k, v any) bool {
		c := v.(*Class)
		if c.createdSeq <= sn.seq {
			classes[k.(string)] = c
		}
		return true
	})
	for _, name := range sortedNames(classes) {
		st.Classes = append(st.Classes, ClassRecord{Name: name, ElemType: classes[name].elemType})
	}
	st.Indexes = sn.s.indexRecords(sn.seq)
	return st
}

// Export captures the full store state as of the pin without taking any
// store lock. The result is byte-for-byte the state a serial replay of the
// journal truncated at the pinned sequence would export (for failure-free
// histories, whose surrogate counter never burns allocations).
func (sn *Snapshot) Export() *StoreState {
	st := sn.baseState()
	for _, sur := range sn.Surrogates() {
		o, _ := sn.obj(sur)
		if o.isRel && o.binding != nil {
			st.Bindings = append(st.Bindings, bindingRecord(sur, o.binding, sn.seq))
			continue
		}
		st.Objects = append(st.Objects, objectRecord(o, sn.seq))
	}
	return st
}

// ExportShards captures a partitioned export as of the pin, lock-free:
// shard i carries records iff dirty[i]; marks[i] becomes its Mark. The
// checkpointer captures marks and dirtiness under the rotation lock (see
// PinCheckpoint) and encodes the records here, with writers running.
func (sn *Snapshot) ExportShards(marks []uint64, dirty []bool) *StoreExport {
	ex := &StoreExport{Base: sn.baseState(), Shards: make([]ShardExport, len(sn.s.shards))}
	for i := range sn.s.shards {
		se := &ex.Shards[i]
		se.Mark = marks[i]
		se.Exported = dirty[i]
		if !dirty[i] {
			continue
		}
		surs := sn.visibleIn(i, nil)
		sort.Slice(surs, func(a, b int) bool { return surs[a] < surs[b] })
		for _, sur := range surs {
			o, _ := sn.obj(sur)
			if o.isRel && o.binding != nil {
				se.Bindings = append(se.Bindings, bindingRecord(sur, o.binding, sn.seq))
				continue
			}
			se.Objects = append(se.Objects, objectRecord(o, sn.seq))
		}
	}
	return ex
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
	pc := &PinnedCheckpoint{
		Marks: make([]uint64, len(s.shards)),
		Dirty: make([]bool, len(s.shards)),
	}
	full := len(baseline) != len(s.shards)
	for i := range s.shards {
		pc.Marks[i] = s.shards[i].dirty.Load()
		pc.Dirty[i] = full || pc.Marks[i] != baseline[i]
	}
	pc.Snap = s.pinLocked()
	hold := time.Since(start).Nanoseconds()
	s.unlockAll()
	pc.LockHoldNs = hold
	return pc, nil
}
