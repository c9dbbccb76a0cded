package object

import (
	"fmt"

	"cadcam/internal/domain"
	"cadcam/internal/oplog"
)

// SetAttr sets an attribute on an object or relationship object.
//
// Write protection (§2): attributes that reach the object through an
// inheritance relationship are read-only here and can only change on the
// transmitter side; attempting to set them returns ErrInheritedAttribute.
//
// Every successful update of an object that is a transmitter bumps the
// bookkeeping of all bindings through which the change is visible and
// fires registered update hooks (after the lock is released),
// transitively along inheritance chains.
//
// SetAttr is the hot single-shard path: it locks only the shard owning
// sur. Chain validation and notification read other shards' topology,
// which any single shard lock freezes (see the shard type); binding
// bookkeeping on other shards advances through commuting atomics.
func (s *Store) SetAttr(sur domain.Surrogate, name string, v domain.Value) error {
	sh := s.shardOf(sur)
	sh.mu.Lock()
	dispatch, err := s.setAttrShard(sh, sur, name, v, 0)
	sh.mu.Unlock()
	if dispatch {
		s.dispatchEvents()
	}
	return err
}

// SetAttrAt applies a journaled attribute write with its recorded
// sequence number — the parallel-recovery form of SetAttr. It neither
// consumes the store's sequence counter nor journals, so recovery may
// apply per-shard partitions of the journal concurrently: each goroutine
// holds its own shard's lock, topology is frozen (structural ops are
// replay barriers), and cross-shard binding bookkeeping advances through
// commuting atomics, reproducing the live outcome regardless of the
// goroutine interleaving. Only recovery may call it.
func (s *Store) SetAttrAt(sur domain.Surrogate, name string, v domain.Value, seq uint64) error {
	sh := s.shardOf(sur)
	sh.mu.Lock()
	dispatch, err := s.setAttrShard(sh, sur, name, v, seq)
	sh.mu.Unlock()
	if dispatch {
		s.dispatchEvents()
	}
	return err
}

// setAttrShard performs an attribute write under the owning shard's lock.
// replaySeq == 0 is the live path: the write consumes a fresh sequence
// number and is journaled. replaySeq != 0 is the recovery path: the
// journaled sequence is applied verbatim and nothing is re-journaled.
func (s *Store) setAttrShard(sh *shard, sur domain.Surrogate, name string, v domain.Value, replaySeq uint64) (bool, error) {
	o, ok := sh.objects[sur]
	if !ok {
		return false, noObject(sur)
	}
	if err := s.guardLocked(sur); err != nil {
		return false, err
	}
	if o.isRel {
		return false, s.setRelAttrLocked(o, name, v, replaySeq)
	}
	// Fast path: overwriting an already-validated slot. The memoized
	// declaration proves the attribute is declared and non-inherited, so
	// only the value itself needs checking.
	if b, ok := o.attrMap()[name]; ok && b.decl != nil && !domain.IsNull(v) {
		if err := b.decl.Domain.Validate(v); err != nil {
			return false, fmt.Errorf("%w: %s.%s: %v", ErrTypeMismatch, o.typeName, name, err)
		}
		if err := s.checkRefValueLocked(b.decl.Domain, v); err != nil {
			return false, err
		}
		seq := replaySeq
		if seq == 0 {
			seq = s.seq.Add(1)
		}
		ceil := s.ceiling()
		if b.put(seq, v, ceil) {
			sh.retained.Add(1)
		}
		if o.pushModSeq(seq, ceil) {
			sh.retained.Add(1)
		}
		s.markDirty(sur)
		s.idxOwn(o, name, v, seq)
		n := notifier{s: s, seq: seq}
		n.notify(o, name)
		n.notifyParent(o)
		if replaySeq == 0 && s.journal != nil {
			s.emit(&oplog.Op{Kind: oplog.KindSetAttr, Sur: sur, Name: name, Value: v, Seq: seq})
		}
		return n.queue(), nil
	}
	eff, err := s.effectiveLocked(o)
	if err != nil {
		return false, err
	}
	a, ok := eff.Attr(name)
	if !ok {
		return false, fmt.Errorf("%w: %s.%s", ErrNoSuchAttribute, o.typeName, name)
	}
	if a.Inherited() {
		return false, fmt.Errorf("%w: %s.%s (from %s via %s)", ErrInheritedAttribute, o.typeName, name, a.Source, a.Via)
	}
	if err := a.Domain.Validate(v); err != nil {
		return false, fmt.Errorf("%w: %s.%s: %v", ErrTypeMismatch, o.typeName, name, err)
	}
	if err := s.checkRefValueLocked(a.Domain, v); err != nil {
		return false, err
	}
	seq := replaySeq
	if seq == 0 {
		seq = s.seq.Add(1)
	}
	ceil := s.ceiling()
	if n := o.setAttr(name, v, seq, ceil); n > 0 {
		sh.retained.Add(uint64(n))
	}
	if b, ok := o.attrMap()[name]; ok {
		b.decl = a // arm the fast path for subsequent writes
	}
	if o.pushModSeq(seq, ceil) {
		sh.retained.Add(1)
	}
	s.markDirty(sur)
	s.idxOwn(o, name, v, seq)
	n := notifier{s: s, seq: seq}
	n.notify(o, name)
	n.notifyParent(o)
	if replaySeq == 0 && s.journal != nil { // guard here so an in-memory store never allocates the op
		s.emit(&oplog.Op{Kind: oplog.KindSetAttr, Sur: sur, Name: name, Value: v, Seq: seq})
	}
	return n.queue(), nil
}

// setRelAttrLocked updates a user-declared attribute of a relationship
// object. Participant roles and the binding bookkeeping attributes are not
// assignable. Declaration lookups use the catalog's precomputed per-type
// indexes rather than scanning the declaration slices. replaySeq follows
// the setAttrShard convention.
func (s *Store) setRelAttrLocked(o *Object, name string, v domain.Value, replaySeq uint64) error {
	if _, ok := s.cat.RelType(o.typeName); ok {
		if s.cat.RelRole(o.typeName, name) {
			return fmt.Errorf("%w: participant role %q is fixed at creation", ErrTypeMismatch, name)
		}
	} else if _, ok := s.cat.InherRelType(o.typeName); ok {
		switch name {
		case AttrTransmitterUpdates, AttrLastUpdateSeq, AttrAcknowledgedSeq:
			return fmt.Errorf("%w: %q is maintained by the system", ErrTypeMismatch, name)
		}
	} else {
		return fmt.Errorf("%w: %q", ErrNoSuchType, o.typeName)
	}
	a, ok := s.cat.RelAttr(o.typeName, name)
	if !ok {
		return fmt.Errorf("%w: %s.%s", ErrNoSuchAttribute, o.typeName, name)
	}
	if err := a.Domain.Validate(v); err != nil {
		return fmt.Errorf("%w: %s.%s: %v", ErrTypeMismatch, o.typeName, name, err)
	}
	seq := replaySeq
	if seq == 0 {
		seq = s.seq.Add(1)
	}
	ceil := s.ceiling()
	sh := s.shardOf(o.sur)
	if n := o.setAttr(name, v, seq, ceil); n > 0 {
		sh.retained.Add(uint64(n))
	}
	if o.pushModSeq(seq, ceil) {
		sh.retained.Add(1)
	}
	s.markDirty(o.sur)
	if replaySeq == 0 {
		s.emit(&oplog.Op{Kind: oplog.KindSetAttr, Sur: o.sur, Name: name, Value: v, Seq: seq})
	}
	return nil
}

// checkRefValueLocked verifies that object references inside v point to
// live objects of the domain's required type. Lookups may cross shards;
// the caller's shard lock freezes topology store-wide.
func (s *Store) checkRefValueLocked(d *domain.Domain, v domain.Value) error {
	if domain.IsNull(v) {
		return nil
	}
	switch x := v.(type) {
	case domain.Ref:
		ro, ok := s.obj(domain.Surrogate(x))
		if !ok {
			return fmt.Errorf("%w: reference %s", ErrNoSuchObject, x)
		}
		if want := d.ObjectType(); want != "" && ro.typeName != want {
			return fmt.Errorf("%w: reference %s is %q, want %q", ErrTypeMismatch, x, ro.typeName, want)
		}
	case *domain.Set:
		if d.Kind() == domain.KindSet {
			for _, e := range x.Elems() {
				if err := s.checkRefValueLocked(d.Elem(), e); err != nil {
					return err
				}
			}
		}
	case *domain.List:
		if d.Kind() == domain.KindList {
			for _, e := range x.Elems() {
				if err := s.checkRefValueLocked(d.Elem(), e); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// GetAttr reads an attribute with the paper's resolution rule: own
// attributes come from the object itself; inherited attributes are read
// through the binding from the live transmitter (view semantics — never a
// copy), or read as null while unbound (type-level inheritance only).
//
// The hot path is lock-free: a memoized route valid against the current
// epochs of the shards it crosses names the object whose own attribute
// slot holds the value, and that slot is read live — so transmitter
// updates are visible immediately after a hit, while any structural
// change forces the locked slow path via the epoch check.
func (s *Store) GetAttr(sur domain.Surrogate, name string) (domain.Value, error) {
	if r, ok := s.loadAttrRoute(sur, name); ok {
		s.shardOf(sur).hits.Add(1)
		if r.owner == nil {
			return domain.NullValue, nil
		}
		if v, ok := r.owner.attr(name); ok {
			return v, nil
		}
		return domain.NullValue, nil
	}
	sh := s.shardOf(sur)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	o, ok := sh.objects[sur]
	if !ok {
		return nil, noObject(sur)
	}
	return s.getAttrLocked(o, name)
}

func (s *Store) getAttrLocked(o *Object, name string) (domain.Value, error) {
	if name == "Surrogate" {
		return domain.Ref(o.sur), nil
	}
	if o.isRel {
		return s.getRelAttrLocked(o, name)
	}
	v, _, err := s.resolveAttrLocked(o, name)
	return v, err
}

// resolveAttrLocked walks the inheritance chain iteratively, memoizing the
// route taken: either the chain ends at the object owning the attribute
// (the value is read from its live slot) or it ends unbound (the read is
// null until a Bind — which bumps the inheritor's shard epoch — changes
// that). Unknown attributes are not memoized and keep their error
// semantics. The walk crosses shards freely: the caller holds some shard
// lock, which freezes topology store-wide.
func (s *Store) resolveAttrLocked(o *Object, name string) (domain.Value, *route, error) {
	chain := []domain.Surrogate{o.sur}
	cur := o
	for {
		eff, err := s.effectiveLocked(cur)
		if err != nil {
			return nil, nil, err
		}
		a, ok := eff.Attr(name)
		if !ok {
			return nil, nil, fmt.Errorf("%w: %s.%s", ErrNoSuchAttribute, cur.typeName, name)
		}
		if !a.Inherited() {
			r := s.memoAttr(o.sur, name, cur, chain)
			if v, ok := cur.attr(name); ok {
				return v, r, nil
			}
			return domain.NullValue, r, nil
		}
		b := byRel(cur.bindingsIn(), a.Via)
		if b == nil {
			r := s.memoAttr(o.sur, name, nil, chain)
			return domain.NullValue, r, nil
		}
		t, ok := s.obj(b.Transmitter)
		if !ok {
			r := s.memoAttr(o.sur, name, nil, chain)
			return domain.NullValue, r, nil
		}
		chain = append(chain, t.sur)
		cur = t
	}
}

func (s *Store) getRelAttrLocked(o *Object, name string) (domain.Value, error) {
	return s.relAttrAt(o, name, liveSeq)
}

// relAttrAt reads a relationship object's attribute as of sequence point
// at (liveSeq: the live state): participant roles (immutable), the
// binding bookkeeping, then user-declared attributes.
func (s *Store) relAttrAt(o *Object, name string, at uint64) (domain.Value, error) {
	if v, ok := o.participants[name]; ok {
		return v, nil
	}
	if o.binding != nil {
		k, _ := o.binding.book.at(at)
		switch name {
		case AttrTransmitterUpdates:
			return domain.Int(k.upd), nil
		case AttrLastUpdateSeq:
			return domain.Int(k.last), nil
		case AttrAcknowledgedSeq:
			return domain.Int(k.ack), nil
		}
	}
	if b, ok := o.attrMap()[name]; ok {
		if v, ok := b.valueAt(at); ok {
			return v, nil
		}
	}
	// Verify the name is declared before returning null (O(1) via the
	// catalog's precomputed attribute index).
	if _, ok := s.cat.RelAttr(o.typeName, name); ok {
		return domain.NullValue, nil
	}
	if _, ok := s.cat.InherRelType(o.typeName); ok {
		switch name {
		case AttrTransmitterUpdates, AttrLastUpdateSeq, AttrAcknowledgedSeq:
			return domain.Int(0), nil
		}
	}
	return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchAttribute, o.typeName, name)
}

// Members returns the member surrogates of a local subclass or
// relationship subclass, following inheritance for subclasses the object's
// type inherits (the interface's Pins seen from the implementation).
//
// Like GetAttr, the hot path is lock-free: a valid members route points at
// the owner's materialized class, whose membership slice is published
// atomically. Routes exist only for names that resolve as (possibly
// inherited) subclasses; sub-relationship and relationship-object reads
// always take the locked slow path, so the route can never shadow them.
func (s *Store) Members(sur domain.Surrogate, name string) ([]domain.Surrogate, error) {
	if r, ok := s.loadMembersRoute(sur, name); ok {
		s.shardOf(sur).hits.Add(1)
		if r.cls == nil {
			return nil, nil
		}
		return r.cls.Members(), nil
	}
	sh := s.shardOf(sur)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	o, ok := sh.objects[sur]
	if !ok {
		return nil, noObject(sur)
	}
	return s.membersLocked(o, name)
}

func (s *Store) membersLocked(o *Object, name string) ([]domain.Surrogate, error) {
	if cls, ok := o.relMap()[name]; ok {
		return cls.Members(), nil
	}
	if o.isRel {
		if cls, ok := o.subMap()[name]; ok {
			return cls.Members(), nil
		}
		if s.cat.RelMemberName(o.typeName, name) {
			return nil, nil // declared but empty
		}
		return nil, fmt.Errorf("%w: %s has no subclass %q", ErrNoSuchClass, o.typeName, name)
	}
	r, err := s.resolveMembersLocked(o, name)
	if err != nil {
		return nil, err
	}
	if r == nil || r.cls == nil {
		return nil, nil
	}
	return r.cls.Members(), nil
}

// resolveMembersLocked walks the inheritance chain for a subclass name,
// memoizing the route to the owner's materialized class. A nil route (with
// nil error) marks a declared sub-relationship with no members yet — not
// memoized, because materializing it does not bump any epoch.
func (s *Store) resolveMembersLocked(o *Object, name string) (*route, error) {
	chain := []domain.Surrogate{o.sur}
	cur := o
	for {
		eff, err := s.effectiveLocked(cur)
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
			// cur's class may be nil (not materialized yet); materialization
			// bumps cur's shard epoch, invalidating this route.
			return s.memoMembers(o.sur, name, cur.subMap()[name], chain), nil
		}
		b := byRel(cur.bindingsIn(), sd.Via)
		if b == nil {
			return s.memoMembers(o.sur, name, nil, chain), nil // unbound: structure without members
		}
		t, ok := s.obj(b.Transmitter)
		if !ok {
			return s.memoMembers(o.sur, name, nil, chain), nil
		}
		chain = append(chain, t.sur)
		cur = t
	}
}

// notifier walks the inheritance fan-out from changed transmitters,
// updating binding bookkeeping and collecting UpdateEvents for every
// binding through which a change is visible. Chains re-transmit: if an
// implementation inherits Pins from its interface and a composite
// inherits Pins from the implementation, an interface update notifies
// both bindings. The walk reads binding lists across shards (topology
// is frozen under the caller's shard lock); bookkeeping advances through
// the commuting atomics on the binding objects, so a single-shard caller
// may touch bindings owned by other shards.
type notifier struct {
	s       *Store
	seq     uint64
	unbound bool
	visited map[visitKey]bool
	events  []UpdateEvent
}

// visitKey cycle-breaks the notification walk per (transmitter, member)
// pair, not per transmitter: one operation may notify several members
// (an attribute plus the parent's subclass), and a transmitter reached
// for one member must still fan out for the other — keying by surrogate
// alone would make the outcome depend on notification order.
type visitKey struct {
	transmitter domain.Surrogate
	member      string
}

func (n *notifier) notify(t *Object, member string) {
	bindings := t.bindingsOut()
	if len(bindings) == 0 {
		return
	}
	if n.visited == nil {
		n.visited = make(map[visitKey]bool)
	}
	transmitter := t.sur
	k := visitKey{transmitter, member}
	if n.visited[k] {
		return
	}
	n.visited[k] = true
	for _, b := range bindings {
		if !b.Rel.Inherits(member) {
			continue
		}
		if b.noteUpdate(n.seq, n.s.ceiling()) {
			n.s.shardOf(b.Obj.sur).retained.Add(1)
		}
		// The bookkeeping is durable state of the binding object, which may
		// live in a shard other than the caller's: its segment must be
		// re-encoded at the next checkpoint.
		n.s.markDirty(b.Obj.sur)
		n.events = append(n.events, UpdateEvent{
			Rel:         b.Rel.Name,
			Binding:     b.Obj.sur,
			Transmitter: transmitter,
			Inheritor:   b.Inheritor,
			Member:      member,
			Seq:         n.seq,
			Unbound:     n.unbound,
		})
		// An index over the member sees the change through the inheritor.
		n.s.idxInherited(b.Inheritor, member, n.seq)
		// The inheritor's own inheritors may see the member through it.
		if io, ok := n.s.obj(b.Inheritor); ok {
			n.notify(io, member)
		}
	}
}

// notifyParent informs the inheritors of a subobject's parent: a
// subobject update also changes what the parent's subclass shows.
func (n *notifier) notifyParent(o *Object) {
	if o.parent == 0 {
		return
	}
	if po, ok := n.s.obj(o.parent); ok {
		n.notify(po, o.parentSub)
	}
}

// queue hands the collected events to the dispatch queue (still under the
// caller's locks, preserving order). It returns whether the caller must
// run dispatchEvents after unlocking.
func (n *notifier) queue() bool {
	if len(n.events) == 0 {
		return false
	}
	n.s.queueEvents(n.events)
	return true
}
