package object

import (
	"fmt"

	"cadcam/internal/domain"
	"cadcam/internal/expr"
)

// ConstraintViolation describes one failed integrity constraint.
type ConstraintViolation struct {
	Object domain.Surrogate
	Type   string
	Src    string // constraint source text
	Reason string // "" if it simply evaluated to false
}

func (v *ConstraintViolation) String() string {
	msg := fmt.Sprintf("%s (%s): %s", v.Object, v.Type, v.Src)
	if v.Reason != "" {
		msg += " [" + v.Reason + "]"
	}
	return msg
}

// CheckConstraints evaluates the local integrity constraints of one
// object: the constraints of its (effective) type and, for relationship
// objects, of the relationship type. It returns all violations, or an
// error if the object does not exist.
func (s *Store) CheckConstraints(sur domain.Surrogate) ([]ConstraintViolation, error) {
	sh := s.shardOf(sur)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	o, ok := s.obj(sur)
	if !ok {
		return nil, noObject(sur)
	}
	return s.checkConstraintsLocked(o), nil
}

func (s *Store) checkConstraintsLocked(o *Object) []ConstraintViolation {
	var out []ConstraintViolation
	env := s.lockedEnv(o.sur)
	check := func(src string, e expr.Expr) {
		holds, err := expr.EvalBool(e, env)
		switch {
		case err != nil:
			out = append(out, ConstraintViolation{Object: o.sur, Type: o.lay.name, Src: src, Reason: err.Error()})
		case !holds:
			out = append(out, ConstraintViolation{Object: o.sur, Type: o.lay.name, Src: src})
		}
	}
	if o.lay.isRel {
		if rt, ok := s.cat.RelType(o.lay.name); ok {
			for _, c := range rt.Constraints {
				check(c.Src, c.E)
			}
		} else if it, ok := s.cat.InherRelType(o.lay.name); ok {
			for _, c := range it.Constraints {
				check(c.Src, c.E)
			}
		}
		return out
	}
	eff, err := s.effectiveLocked(o)
	if err != nil {
		return []ConstraintViolation{{Object: o.sur, Type: o.lay.name, Reason: err.Error()}}
	}
	for _, c := range eff.Type.Constraints {
		check(c.Src, c.E)
	}
	// Re-check the where restrictions of local relationship members: they
	// must keep holding as the complex object evolves.
	for _, sr := range eff.Type.SubRels {
		if sr.Where == nil {
			continue
		}
		cls, ok := o.relMap()[sr.Name]
		if !ok {
			continue
		}
		for _, m := range cls.Members() {
			bound := s.whereEnvLocked(o, &sr, m)
			holds, err := expr.EvalBool(sr.Where.E, bound)
			switch {
			case err != nil:
				out = append(out, ConstraintViolation{Object: m, Type: sr.RelType, Src: sr.Where.Src, Reason: err.Error()})
			case !holds:
				out = append(out, ConstraintViolation{Object: m, Type: sr.RelType, Src: sr.Where.Src})
			}
		}
	}
	return out
}

// CheckAll checks every live object and returns all violations, sorted by
// surrogate. Intended for tests, tools and checkpoint validation.
func (s *Store) CheckAll() []ConstraintViolation {
	s.rlockAll()
	defer s.runlockAll()
	var out []ConstraintViolation
	for _, sur := range s.surrogates() {
		o, _ := s.obj(sur)
		out = append(out, s.checkConstraintsLocked(o)...)
	}
	return out
}
