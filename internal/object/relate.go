package object

import (
	"fmt"
	"sort"

	"cadcam/internal/domain"
	"cadcam/internal/expr"
	"cadcam/internal/oplog"
	"cadcam/internal/schema"
)

// Participants carries the role assignments for a new relationship
// object: role name -> Ref (single roles) or *Set of Refs (set-of roles).
type Participants map[string]domain.Value

// Relate creates a top-level relationship object of the named type.
// Every declared role must be assigned and type-correct; the relationship
// type's constraints are checked immediately. Creation inserts into the
// new object's shard and the participant index of every referenced
// object's shard, so it runs store-wide exclusive.
func (s *Store) Relate(relType string, parts Participants) (domain.Surrogate, error) {
	if err := s.lockOpen(); err != nil {
		return 0, err
	}
	defer s.unlockAll()
	sur, err := s.relateLocked(relType, parts, 0, "")
	if err != nil {
		return 0, err
	}
	seq := s.seq.Add(1)
	if o, ok := s.obj(sur); ok {
		s.publishObj(o, seq)
	}
	s.commitClassHist(seq)
	s.emit(&oplog.Op{Kind: oplog.KindRelate, Name: relType, Parts: parts, Out: sur, Seq: seq})
	return sur, nil
}

// RelateIn creates a relationship object in a local relationship subclass
// of a complex object ("types-of-subrels:"). The subclass's where
// restriction (§3) is checked with the new relationship object in scope;
// on violation the relationship is not created.
func (s *Store) RelateIn(owner domain.Surrogate, subrel string, parts Participants) (domain.Surrogate, error) {
	s.lockAll()
	dispatch, sur, err := func() (bool, domain.Surrogate, error) {
		oo, ok := s.obj(owner)
		if !ok {
			return false, 0, noObject(owner)
		}
		if err := s.guardLocked(owner); err != nil {
			return false, 0, err
		}
		sr, err := s.subRelDefLocked(oo, subrel)
		if err != nil {
			return false, 0, err
		}
		sur, err := s.relateLocked(sr.RelType, parts, owner, subrel)
		if err != nil {
			return false, 0, err
		}
		if sr.Where != nil {
			bound := s.whereEnvLocked(oo, sr, sur)
			holds, werr := sr.Where.E.EvalBool(bound)
			if werr == nil && !holds {
				werr = fmt.Errorf("%w: %s", ErrConstraint, sr.Where.Src)
			}
			if werr != nil {
				if ro, ok := s.obj(sur); ok {
					s.deleteRelLocked(ro)
				}
				// The add and remove net to no membership change.
				s.abortClassTouches()
				return false, 0, werr
			}
		}
		seq := s.seq.Add(1)
		if ro, ok := s.obj(sur); ok {
			s.publishObj(ro, seq)
		}
		s.commitClassHist(seq)
		n := notifier{s: s, seq: seq}
		n.notify(oo, subrel)
		s.emit(&oplog.Op{Kind: oplog.KindRelateIn, Sur: owner, Name: subrel, Parts: parts, Out: sur, Seq: seq})
		return n.queue(), sur, nil
	}()
	s.unlockAll()
	if dispatch {
		s.dispatchEvents()
	}
	return sur, err
}

func (s *Store) subRelDefLocked(o *Object, name string) (*schema.SubRel, error) {
	if o.lay.isRel {
		if rt, ok := s.cat.RelType(o.lay.name); ok {
			for i := range rt.SubRels {
				if rt.SubRels[i].Name == name {
					return &rt.SubRels[i], nil
				}
			}
		}
		return nil, fmt.Errorf("%w: %s has no sub-relationship %q", ErrNoSuchClass, o.lay.name, name)
	}
	eff, err := s.effectiveLocked(o)
	if err != nil {
		return nil, err
	}
	sr := eff.Type.SubRels
	for i := range sr {
		if sr[i].Name == name {
			return &sr[i], nil
		}
	}
	return nil, fmt.Errorf("%w: %s has no sub-relationship %q", ErrNoSuchClass, o.lay.name, name)
}

// relateLocked creates the relationship object and its index entries.
// Callers hold all shard locks and assign the operation's sequence number
// after it returns (one sequence per public operation).
func (s *Store) relateLocked(relType string, parts Participants, owner domain.Surrogate, subrel string) (domain.Surrogate, error) {
	rt, ok := s.cat.RelType(relType)
	if !ok {
		return 0, fmt.Errorf("%w: relationship type %q", ErrNoSuchType, relType)
	}
	assigned := make(map[string]domain.Value, len(rt.Participants))
	for _, p := range rt.Participants {
		v, ok := parts[p.Name]
		if !ok {
			return 0, fmt.Errorf("%w: role %q of %s not assigned", ErrTypeMismatch, p.Name, relType)
		}
		if err := s.checkParticipantLocked(relType, p, v); err != nil {
			return 0, err
		}
		assigned[p.Name] = v
	}
	for name := range parts {
		if _, ok := assigned[name]; !ok {
			return 0, fmt.Errorf("%w: %s has no role %q", ErrTypeMismatch, relType, name)
		}
	}
	sur := domain.Surrogate(s.nextSur.Add(1))
	o := s.layouts[relType].newObject(sur)
	o.participants = assigned
	s.putObj(o, pending)
	s.markDirty(sur)
	for _, v := range assigned {
		s.indexParticipantLocked(o.sur, v)
	}
	if owner != 0 {
		oo, _ := s.obj(owner)
		cls, ok := oo.relMap()[subrel]
		if !ok {
			cls = newClass(subrel, relType)
			oo.putSubrel(subrel, cls)
		}
		s.classAdd(cls, o.sur)
		o.parent = owner
		o.parentSub = subrel
	}
	return o.sur, nil
}

func (s *Store) checkParticipantLocked(relType string, p schema.Participant, v domain.Value) error {
	checkOne := func(v domain.Value) error {
		ref, ok := v.(domain.Ref)
		if !ok {
			return fmt.Errorf("%w: role %q of %s needs an object reference, got %s",
				ErrTypeMismatch, p.Name, relType, v)
		}
		ro, ok := s.obj(domain.Surrogate(ref))
		if !ok {
			return fmt.Errorf("%w: role %q references %s", ErrNoSuchObject, p.Name, ref)
		}
		if p.Type != "" && ro.lay.name != p.Type {
			return fmt.Errorf("%w: role %q of %s needs %q, got %q",
				ErrTypeMismatch, p.Name, relType, p.Type, ro.lay.name)
		}
		return nil
	}
	if p.SetOf {
		set, ok := v.(*domain.Set)
		if !ok {
			return fmt.Errorf("%w: role %q of %s is set-of, got %s", ErrTypeMismatch, p.Name, relType, v)
		}
		for _, e := range set.Elems() {
			if err := checkOne(e); err != nil {
				return err
			}
		}
		return nil
	}
	return checkOne(v)
}

// indexParticipantLocked records the reverse edge participant -> rel
// object in the participant's shard, used for cascading deletes of
// relationships whose participants disappear. Callers hold all shard
// write locks.
func (s *Store) indexParticipantLocked(rel domain.Surrogate, v domain.Value) {
	switch x := v.(type) {
	case domain.Ref:
		sur := domain.Surrogate(x)
		sh := s.shardOf(sur)
		m := sh.relsByParticipant[sur]
		if m == nil {
			m = make(map[domain.Surrogate]bool)
			sh.relsByParticipant[sur] = m
		}
		m[rel] = true
	case *domain.Set:
		for _, e := range x.Elems() {
			s.indexParticipantLocked(rel, e)
		}
	}
}

// Participant reads a role of a relationship object.
func (s *Store) Participant(rel domain.Surrogate, role string) (domain.Value, error) {
	o, err := s.Get(rel)
	if err != nil {
		return nil, err
	}
	if !o.lay.isRel {
		return nil, fmt.Errorf("%w: %s is not a relationship object", ErrTypeMismatch, rel)
	}
	v, ok := o.role(role)
	if !ok {
		return nil, fmt.Errorf("%w: %s has no role %q", ErrNoSuchAttribute, o.lay.name, role)
	}
	return v, nil
}

// RelationshipsOf returns the relationship objects that reference sur as
// a participant, sorted by surrogate.
func (s *Store) RelationshipsOf(sur domain.Surrogate) []domain.Surrogate {
	sh := s.shardOf(sur)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	m := sh.relsByParticipant[sur]
	out := make([]domain.Surrogate, 0, len(m))
	for rel := range m {
		out = append(out, rel)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ParticipantsOf returns the object surrogates a relationship object
// relates (flattening set-of roles), sorted by surrogate.
func (s *Store) ParticipantsOf(rel domain.Surrogate) []domain.Surrogate {
	o, err := s.Get(rel)
	if err != nil || !o.lay.isRel {
		return nil
	}
	var out []domain.Surrogate
	var collect func(v domain.Value)
	collect = func(v domain.Value) {
		switch x := v.(type) {
		case domain.Ref:
			out = append(out, domain.Surrogate(x))
		case *domain.Set:
			for _, e := range x.Elems() {
				collect(e)
			}
		}
	}
	for _, v := range o.roleValues() {
		collect(v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NewRelSubobject creates a subobject inside a relationship object's local
// subclass — the bolt and nut living inside a ScrewingType relationship
// (§5). Its journal record carries the new surrogate and the operation's
// sequence number.
func (s *Store) NewRelSubobject(rel domain.Surrogate, subclass string) (domain.Surrogate, error) {
	s.lockAll()
	defer s.unlockAll()
	ro, ok := s.obj(rel)
	if !ok {
		return 0, noObject(rel)
	}
	if err := s.guardLocked(rel); err != nil {
		return 0, err
	}
	if !ro.lay.isRel {
		return 0, fmt.Errorf("%w: %s is not a relationship object", ErrTypeMismatch, rel)
	}
	rt, ok := s.cat.RelType(ro.lay.name)
	if !ok {
		return 0, fmt.Errorf("%w: %q has no subclasses", ErrNoSuchType, ro.lay.name)
	}
	for _, sc := range rt.Subclasses {
		if sc.Name != subclass {
			continue
		}
		mt, ok := s.cat.ObjectType(sc.ElemType)
		if !ok {
			return 0, fmt.Errorf("%w: %q", ErrNoSuchType, sc.ElemType)
		}
		o := s.newObjectLocked(mt)
		o.parent = rel
		o.parentSub = subclass
		cls, ok := ro.subMap()[subclass]
		if !ok {
			cls = newClass(subclass, sc.ElemType)
			ro.putSub(subclass, cls)
		}
		s.classAdd(cls, o.sur)
		seq := s.seq.Add(1)
		s.publishObj(o, seq)
		s.commitClassHist(seq)
		s.emit(&oplog.Op{Kind: oplog.KindNewRelSubobject, Sur: rel, Name: subclass, Out: o.sur, Seq: seq})
		return o.sur, nil
	}
	return 0, fmt.Errorf("%w: %s has no subclass %q", ErrNoSuchClass, ro.lay.name, subclass)
}

// whereEnvLocked builds the evaluation scope for a subrel where
// restriction: names resolve first against the relationship object
// (participant roles like Pin1 or Bores, its attributes and local
// subclasses like Bolt/Nut), then against the owning complex object
// (Pins, SubGates, Girders). The relationship object is additionally
// bound under the subclass name and the relationship type name, so both
// "Pin1 in Pins" and "Wires.Pin1 in Pins" read naturally.
func (s *Store) whereEnvLocked(owner *Object, sr *schema.SubRel, rel domain.Surrogate) expr.Env {
	var env expr.Env = &overlayEnv{
		first:  s.lockedEnv(rel),
		second: s.lockedEnv(owner.sur),
	}
	env = bindName(env, sr.Name, domain.Ref(rel))
	env = bindName(env, sr.RelType, domain.Ref(rel))
	return env
}

// overlayEnv resolves against first, falling back to second.
type overlayEnv struct {
	first, second expr.Env
}

func (o *overlayEnv) Lookup(name string) (domain.Value, bool) {
	if v, ok := o.first.Lookup(name); ok {
		return v, true
	}
	return o.second.Lookup(name)
}

func (o *overlayEnv) Collection(name string) ([]domain.Value, bool) {
	if c, ok := o.first.Collection(name); ok {
		return c, true
	}
	return o.second.Collection(name)
}

func (o *overlayEnv) AttrOf(ref domain.Ref, attr string) (domain.Value, bool) {
	if v, ok := o.first.AttrOf(ref, attr); ok {
		return v, true
	}
	return o.second.AttrOf(ref, attr)
}

func (o *overlayEnv) CollectionOf(ref domain.Ref, name string) ([]domain.Value, bool) {
	if c, ok := o.first.CollectionOf(ref, name); ok {
		return c, true
	}
	return o.second.CollectionOf(ref, name)
}

// bindName overlays a single name binding on an Env.
type nameBinding struct {
	base expr.Env
	name string
	val  domain.Value
}

func bindName(base expr.Env, name string, v domain.Value) expr.Env {
	return &nameBinding{base: base, name: name, val: v}
}

func (b *nameBinding) Lookup(name string) (domain.Value, bool) {
	if name == b.name {
		return b.val, true
	}
	return b.base.Lookup(name)
}

func (b *nameBinding) Collection(name string) ([]domain.Value, bool) {
	return b.base.Collection(name)
}

func (b *nameBinding) AttrOf(ref domain.Ref, attr string) (domain.Value, bool) {
	return b.base.AttrOf(ref, attr)
}

func (b *nameBinding) CollectionOf(ref domain.Ref, name string) ([]domain.Value, bool) {
	return b.base.CollectionOf(ref, name)
}
