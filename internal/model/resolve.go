package model

import (
	"fmt"
	"sort"

	"cadcam/internal/domain"
)

// ResolveAttr reads an attribute of a non-relationship object with the
// paper's resolution rule, by brute force: own attributes come from the
// object, inherited ones follow the binding chain to the live
// transmitter, or read null while unbound.
func (m *Model) ResolveAttr(sur domain.Surrogate, name string) (domain.Value, error) {
	o, ok := m.objects[sur]
	if !ok {
		return nil, fmt.Errorf("model: no object %s", sur)
	}
	if name == "Surrogate" {
		return domain.Ref(sur), nil
	}
	if o.IsRel {
		return nil, fmt.Errorf("model: %s is a relationship object", sur)
	}
	cur := o
	for hops := 0; ; hops++ {
		if hops > len(m.bindings)+1 {
			return nil, fmt.Errorf("model: inheritance cycle at %s", cur.Sur)
		}
		eff, ok := m.cat.Effective(cur.TypeName)
		if !ok {
			return nil, fmt.Errorf("model: no effective type %q", cur.TypeName)
		}
		a, ok := eff.Attr(name)
		if !ok {
			return nil, fmt.Errorf("model: %s has no attribute %q", cur.TypeName, name)
		}
		if !a.Inherited() {
			if v, ok := cur.Attrs[name]; ok {
				return v, nil
			}
			return domain.NullValue, nil
		}
		b := m.bindingOf(cur.Sur, a.Via)
		if b == nil {
			return domain.NullValue, nil
		}
		t, ok := m.objects[b.Transmitter]
		if !ok {
			return domain.NullValue, nil
		}
		cur = t
	}
}

// ResolveMembers lists the members of a local subclass or relationship
// subclass of a non-relationship object, following inheritance for
// subclasses the object's type inherits. Membership is reconstructed by
// scanning parent links; creation order equals ascending surrogate order,
// which removal preserves.
func (m *Model) ResolveMembers(sur domain.Surrogate, name string) ([]domain.Surrogate, error) {
	o, ok := m.objects[sur]
	if !ok {
		return nil, fmt.Errorf("model: no object %s", sur)
	}
	if o.IsRel {
		return nil, fmt.Errorf("model: %s is a relationship object", sur)
	}
	// Sub-relationship members shadow subclass resolution, as in
	// the store's members read: a materialized subrel class answers
	// directly.
	if rels := m.childrenOf(sur, name, true); len(rels) != 0 {
		return rels, nil
	}
	cur := o
	for hops := 0; ; hops++ {
		if hops > len(m.bindings)+1 {
			return nil, fmt.Errorf("model: inheritance cycle at %s", cur.Sur)
		}
		eff, ok := m.cat.Effective(cur.TypeName)
		if !ok {
			return nil, fmt.Errorf("model: no effective type %q", cur.TypeName)
		}
		sd, ok := eff.SubclassByName(name)
		if !ok {
			for _, sr := range eff.Type.SubRels {
				if sr.Name == name {
					return nil, nil // declared sub-relationship, no members
				}
			}
			return nil, fmt.Errorf("model: %s has no subclass %q", cur.TypeName, name)
		}
		if !sd.Inherited() {
			return m.childrenOf(cur.Sur, name, false), nil
		}
		b := m.bindingOf(cur.Sur, sd.Via)
		if b == nil {
			return nil, nil
		}
		t, ok := m.objects[b.Transmitter]
		if !ok {
			return nil, nil
		}
		cur = t
	}
}

func (m *Model) childrenOf(parent domain.Surrogate, sub string, rel bool) []domain.Surrogate {
	var out []domain.Surrogate
	for sur, o := range m.objects {
		if o.Parent == parent && o.ParentSub == sub && o.IsRel == rel {
			out = append(out, sur)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
