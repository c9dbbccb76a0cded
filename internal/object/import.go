package object

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cadcam/internal/domain"
)

// Import rebuilds the state into an empty store, as one partition. It
// fails if the store already holds objects or if the state is
// inconsistent with the catalog. The store takes ownership of the
// records' attribute maps.
func (s *Store) Import(st *StoreState) error {
	_, err := s.ImportStream(st, 1, 1, func(int) ([]ObjectRecord, []BindingRecord, error) {
		return st.Objects, st.Bindings, nil
	})
	return err
}

// ImportStream rebuilds checkpoint state into an empty store in three
// steps: base's classes; then `parts` partitions of object and binding
// records, each produced by next(p) and entered in the shard tables as
// soon as it arrives; then a finish pass that links class membership,
// subobjects, participant postings and bindings in surrogate order and
// seeds base's index definitions and counters.
//
// The store owns the records next returns and drops each partition once
// it is entered, so at most `workers` partitions are held at once (<= 0
// means GOMAXPROCS); peak is the most records held at once. Partition p
// may hold only surrogates s with s % parts == p, in 1..base.NextSur: a
// record outside its partition fails the import before it is entered.
// Partitions enter concurrently only when parts equals the shard count,
// so that each worker writes only its own shard's table; otherwise one
// at a time. A failed import leaves the store empty.
func (s *Store) ImportStream(base *StoreState, parts, workers int, next func(p int) ([]ObjectRecord, []BindingRecord, error)) (peak int, err error) {
	if err := s.lockOpen(); err != nil {
		return 0, err
	}
	defer s.unlockAll()
	for i := range s.shards {
		if s.shards[i].live != 0 {
			return 0, fmt.Errorf("object: Import needs an empty store")
		}
	}
	defer func() {
		if err != nil {
			s.clearLocked()
		}
	}()
	for _, c := range base.Classes {
		stripe := s.stripeOf(c.Name)
		if _, dup := stripe.classMap()[c.Name]; dup {
			return 0, fmt.Errorf("object: duplicate class %q in snapshot", c.Name)
		}
		stripe.putClass(newClass(c.Name, c.ElemType))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if parts != len(s.shards) {
		workers = 1
	}
	workers = max(min(workers, parts), 1)

	var held, top atomic.Int64
	var failed atomic.Bool
	enter := func(p int) error {
		objs, binds, err := next(p)
		if err != nil {
			return err
		}
		n := int64(len(objs) + len(binds))
		for cur, old := held.Add(n), top.Load(); cur > old && !top.CompareAndSwap(old, cur); old = top.Load() {
		}
		defer held.Add(-n)
		for i := range objs {
			if err := checkSur(objs[i].Sur, p, parts, base.NextSur); err != nil {
				return err
			}
			if err := s.importObject(&objs[i]); err != nil {
				return err
			}
		}
		for i := range binds {
			if err := checkSur(binds[i].Sur, p, parts, base.NextSur); err != nil {
				return err
			}
			if err := s.importBinding(&binds[i]); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := w; p < parts && !failed.Load(); p += workers {
				if errs[w] = enter(p); errs[w] != nil {
					failed.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return int(top.Load()), err
		}
	}
	if err := s.finishImport(base); err != nil {
		return int(top.Load()), err
	}
	return int(top.Load()), nil
}

// checkSur rejects a record surrogate outside the state's allocated range
// (1..nextSur) or outside partition p of parts. The object tables are
// sized by surrogate, and concurrent partitions write disjoint shards only
// if every record stays in its own partition.
func checkSur(sur domain.Surrogate, p, parts int, nextSur uint64) error {
	if sur == 0 || uint64(sur) > nextSur {
		return fmt.Errorf("object: snapshot surrogate %s outside the allocated range 1..%d", sur, nextSur)
	}
	if uint64(sur)%uint64(parts) != uint64(p) {
		return fmt.Errorf("object: snapshot surrogate %s in partition %d of %d", sur, p, parts)
	}
	return nil
}

// importObject validates one object record and enters the rebuilt object
// in its shard's table, taking over the record's maps. Concurrent calls
// are safe for records owned by different shards while the coordinating
// goroutine holds all write locks: each touches only its own shard's
// table, and the catalog lookups are read-only.
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
	o := s.layouts[r.TypeName].newObject(r.Sur)
	if err := o.importAttrs(r.Attrs); err != nil {
		return err
	}
	if r.OwnerClass != "" {
		cls, ok := s.class(r.OwnerClass)
		if !ok {
			return fmt.Errorf("%w: %q", ErrNoSuchClass, r.OwnerClass)
		}
		o.ownerClass = cls
	}
	o.parent = r.Parent
	o.parentSub = r.ParentSub
	o.participants = r.Participants
	if r.ModSeq != 0 {
		o.mod.head.Store(&vnode[struct{}]{at: r.ModSeq})
	}
	s.putObj(o, 0)
	return nil
}

// importAttrs fills o's attribute slots from a record's attributes,
// stamped as base state. The record must conform to its type: every name
// is one of the type's own attributes (not inherited, not undeclared),
// and every value lies in that attribute's domain.
func (o *Object) importAttrs(attrs map[string]domain.Value) error {
	for name, v := range attrs {
		i, ok := o.lay.ord[name]
		if !ok {
			return fmt.Errorf("%w: snapshot record %s stores %s.%s, not an own attribute of its type",
				ErrNoSuchAttribute, o.sur, o.lay.name, name)
		}
		if err := o.lay.attrs[i].Domain.Validate(v); err != nil {
			return fmt.Errorf("%w: snapshot record %s stores %s.%s: %v", ErrTypeMismatch, o.sur, o.lay.name, name, err)
		}
		o.attrs[i].head.Store(&vnode[domain.Value]{v: v})
	}
	return nil
}

// importBinding enters one binding's object in its shard's table, with
// its *Binding attached for the finish pass to link, and the record's
// bookkeeping in the binding book. Concurrency as for importObject.
func (s *Store) importBinding(r *BindingRecord) error {
	if _, dup := s.obj(r.Sur); dup {
		return fmt.Errorf("object: duplicate surrogate %s in snapshot", r.Sur)
	}
	rel, ok := s.cat.InherRelType(r.RelType)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchType, r.RelType)
	}
	obj := s.layouts[r.RelType].newObject(r.Sur)
	b := &Binding{Obj: obj, Rel: rel, Transmitter: r.Transmitter, Inheritor: r.Inheritor}
	b.book.put(0, bookkeeping{upd: r.Updates, last: r.LastSeq, ack: r.AckSeq}, 0)
	obj.binding = b
	if err := obj.importAttrs(r.Attrs); err != nil {
		return err
	}
	s.putObj(obj, 0)
	return nil
}

// finishImport links what crosses partitions, reading the object tables
// in surrogate order: class membership, subobjects and participant
// postings of every object first, then every binding. It then seeds the
// index definitions and the counters.
func (s *Store) finishImport(base *StoreState) error {
	err := s.walk(func(o *Object) error {
		if o.binding != nil {
			return nil
		}
		if o.ownerClass != nil {
			o.ownerClass.add(o.sur, 0)
		}
		if o.parent != 0 {
			po, ok := s.obj(o.parent)
			if !ok || po.binding != nil {
				return fmt.Errorf("object: snapshot parent %s missing", o.parent)
			}
			s.linkSubobjectLocked(po, o)
		}
		for _, v := range o.roleValues() {
			s.indexParticipantLocked(o.sur, v)
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = s.walk(func(o *Object) error {
		b := o.binding
		if b == nil {
			return nil
		}
		if _, ok := s.obj(b.Transmitter); !ok {
			return fmt.Errorf("object: snapshot transmitter %s missing", b.Transmitter)
		}
		if _, ok := s.obj(b.Inheritor); !ok {
			return fmt.Errorf("object: snapshot inheritor %s missing", b.Inheritor)
		}
		if s.bindingLocked(b.Inheritor, b.Rel.Name) != nil {
			return fmt.Errorf("object: duplicate binding for %s in %s", b.Inheritor, b.Rel.Name)
		}
		s.indexBinding(b, 0, with)
		return nil
	})
	if err != nil {
		return err
	}
	s.nextSur.Store(base.NextSur)
	s.seq.Store(base.Seq)
	return s.seedIndexState(base.Indexes)
}

// clearLocked returns a store whose import failed to the empty state the
// import started from. Callers hold all write locks.
func (s *Store) clearLocked() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.objs.dir.Store(nil)
		sh.objs.far.Store(nil)
		sh.live = 0
		clear(sh.relsByParticipant)
		sh.retained.Store(0)
	}
	for i := range s.stripes {
		s.stripes[i].classes.Store(nil)
	}
	s.indexes.Store(nil)
	s.nextSur.Store(0)
	s.seq.Store(0)
}

// linkSubobjectLocked re-registers a subobject in its parent's subclass
// or sub-relationship class during import.
func (s *Store) linkSubobjectLocked(parent, child *Object) {
	name := child.parentSub
	if child.lay.isRel {
		cls, ok := parent.relMap()[name]
		if !ok {
			cls = newClass(name, child.lay.name)
			parent.putSubrel(name, cls)
		}
		cls.add(child.sur, 0)
		return
	}
	cls, ok := parent.subMap()[name]
	if !ok {
		cls = newClass(name, child.lay.name)
		parent.putSub(name, cls)
	}
	cls.add(child.sur, 0)
}
