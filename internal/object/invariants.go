package object

import (
	"fmt"
	"slices"

	"cadcam/internal/domain"
)

// CheckInvariants audits the store's internal index consistency and
// returns a description of every violation found (empty = healthy). It
// is meant for tests, fuzzing harnesses and post-recovery verification;
// it holds every shard and stripe read lock for its whole run.
//
// Invariants checked:
//
//  1. class membership is symmetric: every member of a database class
//     exists and knows its owner class, and vice versa;
//  2. parent/subclass linkage is symmetric for subobjects and local
//     relationship members;
//  3. every binding is indexed consistently by inheritor and by
//     transmitter, its endpoints exist, and its relationship object is
//     registered;
//  4. binding graphs are acyclic (value inheritance terminates);
//  5. the participant index matches the participants actually stored on
//     relationship objects, in both directions;
//  6. no allocated surrogate exceeds the allocation counter;
//  7. every object lives in the table slot its surrogate maps to, and
//     each shard's live count matches its table;
//  8. every live secondary index agrees with a fresh resolution of each
//     member's attribute value (inherited values included).
func (s *Store) CheckInvariants() []string {
	s.rlockAll()
	defer s.runlockAll()
	var bad []string
	report := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}

	// 1. database classes <-> ownerClass.
	for i := range s.stripes {
		for name, cls := range s.stripes[i].classMap() {
			for _, m := range cls.items() {
				o, ok := s.obj(m)
				if !ok {
					report("class %q holds dead member %s", name, m)
					continue
				}
				if o.ownerClass != cls {
					report("class %q holds %s whose ownerClass is %q", name, m, o.className())
				}
			}
		}
	}
	live := s.surrogates()
	forEachObject := func(f func(sur domain.Surrogate, o *Object)) {
		for _, sur := range live {
			o, _ := s.obj(sur)
			f(sur, o)
		}
	}
	forEachObject(func(sur domain.Surrogate, o *Object) {
		if cls := o.ownerClass; cls != nil {
			if !cls.Contains(sur) {
				report("%s claims class %q but is not a member", sur, cls.name)
			}
		}
	})

	// 2. parent/subclass symmetry.
	forEachObject(func(sur domain.Surrogate, o *Object) {
		if o.parent != 0 {
			po, ok := s.obj(o.parent)
			if !ok {
				report("%s has dead parent %s", sur, o.parent)
			} else {
				in := false
				if cls, ok := po.subMap()[o.parentSub]; ok && cls.Contains(sur) {
					in = true
				}
				if cls, ok := po.relMap()[o.parentSub]; ok && cls.Contains(sur) {
					in = true
				}
				if !in {
					report("%s claims parent %s subclass %q but is not a member", sur, o.parent, o.parentSub)
				}
			}
		}
		for name, cls := range o.subMap() {
			for _, m := range cls.items() {
				mo, ok := s.obj(m)
				if !ok {
					report("%s subclass %q holds dead member %s", sur, name, m)
					continue
				}
				if mo.parent != sur || mo.parentSub != name {
					report("%s subclass %q member %s has parent %s/%q", sur, name, m, mo.parent, mo.parentSub)
				}
			}
		}
		for name, cls := range o.relMap() {
			for _, m := range cls.items() {
				mo, ok := s.obj(m)
				if !ok {
					report("%s subrel %q holds dead member %s", sur, name, m)
					continue
				}
				if !mo.lay.isRel {
					report("%s subrel %q member %s is not a relationship", sur, name, m)
				}
			}
		}
	})

	// 3. binding list symmetry.
	forEachObject(func(sur domain.Surrogate, o *Object) {
		list := o.bindingsIn()
		for _, b := range list {
			if b.Inheritor != sur || byRel(list, b.Rel.Name) != b {
				report("binding list mismatch at (%s, %s)", sur, b.Rel.Name)
			}
			if _, ok := s.obj(b.Obj.sur); !ok || b.Obj.binding != b {
				report("binding object %s not registered", b.Obj.sur)
			}
			if !slices.Contains(s.bindingsOut(b.Transmitter), b) {
				report("binding %s missing from transmitter %s", b.Obj.sur, b.Transmitter)
			}
		}
		// 4. acyclicity: walk transmitter edges from every inheritor.
		if len(list) > 0 && s.reachesLocked(sur, sur) {
			report("binding cycle through %s", sur)
		}
		for _, b := range o.bindingsOut() {
			if b.Transmitter != sur {
				report("transmitter list mismatch at %s", sur)
			}
			if ib := s.bindingLocked(b.Inheritor, b.Rel.Name); ib != b {
				report("binding %s missing from inheritor %s", b.Obj.sur, b.Inheritor)
			}
		}
	})

	// 5. participant index in both directions.
	for i := range s.shards {
		for part, rels := range s.shards[i].relsByParticipant {
			if s.shardIndex(part) != i {
				report("participant index for %s lives in shard %d, expected %d", part, i, s.shardIndex(part))
			}
			for rel := range rels {
				ro, ok := s.obj(rel)
				if !ok {
					report("participant index holds dead relationship %s", rel)
					continue
				}
				if !ro.lay.isRel {
					report("participant index holds non-relationship %s", rel)
					continue
				}
				if !refersTo(ro.roleValues(), part) {
					report("relationship %s indexed for %s but does not reference it", rel, part)
				}
			}
		}
	}
	forEachObject(func(sur domain.Surrogate, o *Object) {
		// Binding objects are reached through the binding lists, not the
		// participant index.
		if o.binding != nil {
			return
		}
		var check func(v domain.Value)
		check = func(v domain.Value) {
			switch x := v.(type) {
			case domain.Ref:
				if !s.shardOf(domain.Surrogate(x)).relsByParticipant[domain.Surrogate(x)][sur] {
					report("relationship %s references %s without index entry", sur, x)
				}
			case *domain.Set:
				for _, e := range x.Elems() {
					check(e)
				}
			}
		}
		for _, v := range o.roleValues() {
			check(v)
		}
	})

	// 6. surrogate allocation; 7. table placement and live counts.
	next := s.nextSur.Load()
	for i := range s.shards {
		sh := &s.shards[i]
		live := 0
		sh.objs.each(func(j uint64, o *Object) {
			if uint64(o.sur) > next {
				report("surrogate %s exceeds allocation counter %d", o.sur, next)
			}
			if s.shardIndex(o.sur) != i || s.slot(o.sur) != j {
				report("%s stored in shard %d slot %d, expected %d/%d", o.sur, i, j, s.shardIndex(o.sur), s.slot(o.sur))
			}
			if o.visibleAt(liveSeq) {
				live++
			}
		})
		if live != sh.live {
			report("shard %d counts %d live objects, holds %d", i, sh.live, live)
		}
	}

	// 8. secondary indexes match freshly-resolved attribute values.
	s.idxAudit(report)
	return bad
}

func refersTo(parts []domain.Value, target domain.Surrogate) bool {
	var found bool
	var walk func(v domain.Value)
	walk = func(v domain.Value) {
		switch x := v.(type) {
		case domain.Ref:
			if domain.Surrogate(x) == target {
				found = true
			}
		case *domain.Set:
			for _, e := range x.Elems() {
				walk(e)
			}
		}
	}
	for _, v := range parts {
		walk(v)
	}
	return found
}
