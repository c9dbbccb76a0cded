package object

import (
	"fmt"
	"sort"

	"cadcam/internal/domain"
	"cadcam/internal/oplog"
)

// Delete removes an object and everything that depends on it:
//
//   - all subobjects and local relationship objects, recursively ("All
//     subobjects depend on the complex object, they are deleted with the
//     complex object", §3);
//   - relationship objects in which the object (or a cascaded subobject)
//     participates;
//   - inheritance bindings in which it is the inheritor.
//
// If the object or any cascaded object is a *transmitter* with inheritors
// outside the cascade, the delete policy decides: DeleteRestrict (default)
// refuses the whole delete; DeleteUnbind detaches those inheritors and
// fires an Unbound update event for each.
//
// The whole cascade runs store-wide exclusive and consumes one sequence
// number, so replaying the journaled op reproduces the same final state
// regardless of what was interleaved with it live.
func (s *Store) Delete(sur domain.Surrogate) error {
	s.lockAll()
	dispatch, err := func() (bool, error) {
		root, ok := s.obj(sur)
		if !ok {
			return false, noObject(sur)
		}
		if err := s.guardLocked(sur); err != nil {
			return false, err
		}

		// Phase 1: collect the cascade set.
		cascade := make(map[domain.Surrogate]bool)
		s.collectCascadeLocked(root, cascade)

		// Phase 2: policy check for transmitters with external inheritors.
		// The cascade set is iterated in surrogate order throughout so the
		// chosen restrict error, the detach-event order and the removal
		// order are reproducible run to run (and match the replay oracle).
		members := sortedSurs(cascade)
		var detach []*Binding
		for _, member := range members {
			for _, b := range s.bindingsOut(member) {
				if cascade[b.Inheritor] {
					continue // inheritor dies with the cascade anyway
				}
				if s.deletePolicy == DeleteRestrict {
					return false, fmt.Errorf("%w: %s has inheritor %s via %s",
						ErrHasInheritors, member, b.Inheritor, b.Rel.Name)
				}
				detach = append(detach, b)
			}
		}

		// Phase 3: apply under one sequence number. Detach external
		// inheritors first so the events see a consistent store.
		seq := s.seq.Add(1)
		n := notifier{s: s, seq: seq}
		for _, b := range detach {
			s.removeBindingLocked(b, seq)
			n.events = append(n.events, UpdateEvent{
				Rel:         b.Rel.Name,
				Binding:     b.Obj.sur,
				Transmitter: b.Transmitter,
				Inheritor:   b.Inheritor,
				Seq:         seq,
				Unbound:     true,
			})
		}
		// Subclass changes visible outside the cascade are notified after
		// the removal, like any other permeable update.
		type parentSub struct {
			parent domain.Surrogate
			sub    string
		}
		var touched []parentSub
		for _, member := range members {
			if o, ok := s.obj(member); ok && o.parent != 0 && !cascade[o.parent] {
				touched = append(touched, parentSub{o.parent, o.parentSub})
			}
		}
		for _, member := range members {
			s.removeObjectLocked(member, seq)
		}
		ceil := s.ceiling()
		for _, ps := range touched {
			if po, ok := s.obj(ps.parent); ok {
				if po.pushModSeq(seq, ceil) {
					s.shardOf(ps.parent).retained.Add(1)
				}
				s.markDirty(ps.parent)
				n.notify(po, ps.sub)
			}
		}
		s.commitClassHist(seq)
		s.emit(&oplog.Op{Kind: oplog.KindDelete, Sur: sur, Seq: seq})
		return n.queue(), nil
	}()
	s.unlockAll()
	if dispatch {
		s.dispatchEvents()
	}
	return err
}

// collectCascadeLocked gathers the object, its subobject tree, its local
// relationship objects, every relationship object referencing any of
// them, and the binding objects of cascaded inheritors.
func (s *Store) collectCascadeLocked(o *Object, acc map[domain.Surrogate]bool) {
	if acc[o.sur] {
		return
	}
	acc[o.sur] = true
	for _, cls := range o.subMap() {
		for _, m := range cls.Members() {
			if mo, ok := s.obj(m); ok {
				s.collectCascadeLocked(mo, acc)
			}
		}
	}
	for _, cls := range o.relMap() {
		for _, m := range cls.Members() {
			if mo, ok := s.obj(m); ok {
				s.collectCascadeLocked(mo, acc)
			}
		}
	}
	// Relationships referencing this object die with it.
	for rel := range s.shardOf(o.sur).relsByParticipant[o.sur] {
		if ro, ok := s.obj(rel); ok {
			s.collectCascadeLocked(ro, acc)
		}
	}
	// Binding objects where this object is the inheritor are removed with
	// it (handled in removeObjectLocked via removeBindingLocked).
}

// removeObjectLocked unlinks one object from every index, at the deleting
// operation's sequence. seq == 0 marks the rollback of an object created
// by the running operation and never published to snapshot readers (a
// failed where-restriction); such objects have no bindings to dissolve.
// Bindings are dissolved; classes and parents forget the member. Callers
// hold all shard and stripe write locks.
func (s *Store) removeObjectLocked(sur domain.Surrogate, seq uint64) {
	sh := s.shardOf(sur)
	o, ok := s.obj(sur)
	if !ok {
		return
	}
	// Deleting a binding's own relationship object dissolves the binding
	// (equivalent to Unbind): drop it from both binding lists.
	if o.isRel {
		if _, isInher := s.cat.InherRelType(o.typeName); isInher {
			if ref, ok := o.participants["Inheritor"].(domain.Ref); ok {
				if b := s.bindingLocked(domain.Surrogate(ref), o.typeName); b != nil && b.Obj == o {
					s.removeBindingLocked(b, seq)
				}
			}
		}
	}
	// Dissolve bindings in both roles (published lists are immutable, so
	// ranging over them while removing is safe).
	for _, b := range o.bindingsIn() {
		s.removeBindingLocked(b, seq)
	}
	for _, b := range o.bindingsOut() {
		s.removeBindingLocked(b, seq)
	}
	// Forget participant index entries for this object, and the reverse
	// edges its own participants hold.
	delete(sh.relsByParticipant, sur)
	if o.isRel {
		for _, v := range o.participants {
			s.unindexParticipantLocked(sur, v)
		}
	}
	// Unlink from the owning class or parent.
	if o.ownerClass != "" {
		if cls, ok := s.lookupClass(o.ownerClass); ok {
			s.classRemove(cls, sur)
		}
	}
	if o.parent != 0 {
		if po, ok := s.obj(o.parent); ok {
			if cls, ok := po.subMap()[o.parentSub]; ok {
				s.classRemove(cls, sur)
			}
			if cls, ok := po.relMap()[o.parentSub]; ok {
				s.classRemove(cls, sur)
			}
		}
	}
	s.retireObj(o, seq)
	s.markDirty(sur)
	// Routes from or through the dead object must not be served again;
	// every such route carries sur in its chain, so its shard's epoch
	// covers them all.
	s.bumpEpoch(sh)
}

func (s *Store) unindexParticipantLocked(rel domain.Surrogate, v domain.Value) {
	switch x := v.(type) {
	case domain.Ref:
		psh := s.shardOf(domain.Surrogate(x))
		if m, ok := psh.relsByParticipant[domain.Surrogate(x)]; ok {
			delete(m, rel)
			if len(m) == 0 {
				delete(psh.relsByParticipant, domain.Surrogate(x))
			}
		}
	case *domain.Set:
		for _, e := range x.Elems() {
			s.unindexParticipantLocked(rel, e)
		}
	}
}

// deleteRelLocked removes a just-created relationship object again (used
// to roll back a failed where-restriction check). The object was never
// published to snapshot readers, so the removal carries no sequence.
func (s *Store) deleteRelLocked(o *Object) {
	s.removeObjectLocked(o.sur, 0)
}

func sortedSurs(set map[domain.Surrogate]bool) []domain.Surrogate {
	out := make([]domain.Surrogate, 0, len(set))
	for sur := range set {
		out = append(out, sur)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
