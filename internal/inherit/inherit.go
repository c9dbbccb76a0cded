// Package inherit provides the higher-level inheritance semantics on top
// of the object store's bindings: abstraction-hierarchy traversal (§4.2),
// adaptation bookkeeping reports (§2), the component-closure ("expansion")
// of composite objects (§6), and a materialized copy-import mode that
// reproduces the copy-vs-view comparison of §2 for the benchmark harness.
//
// Every traversal reads through an object.View: the live store's
// (Store.View) reports the moving present, a pinned snapshot's
// (Snapshot.View) a consistent sequence point while writers proceed.
package inherit

import (
	"fmt"
	"sort"

	"cadcam/internal/domain"
	"cadcam/internal/object"
)

// Ancestors returns the abstraction hierarchy above an object: every
// transmitter reachable by walking bindings upward, in breadth-first
// order starting with the direct transmitters. For a gate implementation
// this is [its interface, the interface's super-interface, ...].
func Ancestors(s object.View, sur domain.Surrogate) []domain.Surrogate {
	var out []domain.Surrogate
	seen := map[domain.Surrogate]bool{sur: true}
	frontier := []domain.Surrogate{sur}
	for len(frontier) > 0 {
		var next []domain.Surrogate
		for _, cur := range frontier {
			bs := s.BindingsOfInheritor(cur)
			for _, rel := range sortedKeys(bs) {
				t := bs[rel].Transmitter
				if !seen[t] {
					seen[t] = true
					out = append(out, t)
					next = append(next, t)
				}
			}
		}
		frontier = next
	}
	return out
}

// Descendants returns every inheritor reachable by walking bindings
// downward: all implementations and composites whose data depends on this
// object, in breadth-first order.
func Descendants(s object.View, sur domain.Surrogate) []domain.Surrogate {
	var out []domain.Surrogate
	seen := map[domain.Surrogate]bool{sur: true}
	frontier := []domain.Surrogate{sur}
	for len(frontier) > 0 {
		var next []domain.Surrogate
		for _, cur := range frontier {
			for _, b := range s.BindingsOfTransmitter(cur) {
				if !seen[b.Inheritor] {
					seen[b.Inheritor] = true
					out = append(out, b.Inheritor)
					next = append(next, b.Inheritor)
				}
			}
		}
		frontier = next
	}
	return out
}

// Adaptation reports one binding whose inheritor side has not yet adapted
// to a transmitter change.
type Adaptation struct {
	Rel         string
	Inheritor   domain.Surrogate
	Transmitter domain.Surrogate
	Updates     int64 // total permeable transmitter updates so far
}

// PendingAdaptations scans the source for bindings flagged by the
// notification bookkeeping (§2: informing the user that adaptations are
// necessary). Results are ordered by inheritor surrogate. The flag is
// read through GetAttr rather than the binding's live bookkeeping, so a
// snapshot source reports the adaptations that were pending at its
// sequence point, not at scan time.
func PendingAdaptations(s object.View) []Adaptation {
	var out []Adaptation
	for _, sur := range s.Surrogates() {
		bs := s.BindingsOfInheritor(sur)
		for _, rel := range sortedKeys(bs) {
			b := bs[rel]
			lastV, err := s.GetAttr(b.Obj.Surrogate(), object.AttrLastUpdateSeq)
			if err != nil {
				continue
			}
			ackV, err := s.GetAttr(b.Obj.Surrogate(), object.AttrAcknowledgedSeq)
			if err != nil {
				continue
			}
			last, _ := domain.AsInt(lastV)
			ack, _ := domain.AsInt(ackV)
			if last <= ack {
				continue
			}
			n, _ := s.GetAttr(b.Obj.Surrogate(), object.AttrTransmitterUpdates)
			updates, _ := domain.AsInt(n)
			out = append(out, Adaptation{
				Rel:         rel,
				Inheritor:   sur,
				Transmitter: b.Transmitter,
				Updates:     updates,
			})
		}
	}
	return out
}

// Portion names the part of a transmitter that is visible in a composite:
// the permeable members of one binding. The transaction manager locks
// exactly these portions ("the parts of the component which are visible
// in the composite object have to be read-locked", §6).
type Portion struct {
	Object  domain.Surrogate // the transmitter
	Rel     string           // the relationship through which it is visible
	Members []string         // permeable attributes and subclasses
}

// VisibleComponents computes the component closure of a composite object:
// for the object itself and every subobject (recursively), each binding
// contributes the visible portion of its transmitter; transmitters are
// expanded recursively (an interface whose data flows from a
// super-interface contributes that portion too). The result is
// deterministic: ordered by (object, rel).
func VisibleComponents(s object.View, root domain.Surrogate) ([]Portion, error) {
	if _, err := s.Get(root); err != nil {
		return nil, err
	}
	var out []Portion
	seenBinding := make(map[domain.Surrogate]bool)
	var visitObject func(sur domain.Surrogate) error
	visitObject = func(sur domain.Surrogate) error {
		bs := s.BindingsOfInheritor(sur)
		for _, rel := range sortedKeys(bs) {
			b := bs[rel]
			if seenBinding[b.Obj.Surrogate()] {
				continue
			}
			seenBinding[b.Obj.Surrogate()] = true
			out = append(out, Portion{
				Object:  b.Transmitter,
				Rel:     rel,
				Members: append([]string(nil), b.Rel.Inheriting...),
			})
			if err := visitObject(b.Transmitter); err != nil {
				return err
			}
		}
		// Recurse into subobjects (own subclasses only; inherited
		// subclasses belong to the transmitter, already covered).
		subs, err := subobjectsOf(s, sur)
		if err != nil {
			return err
		}
		for _, sub := range subs {
			if err := visitObject(sub); err != nil {
				return err
			}
		}
		return nil
	}
	if err := visitObject(root); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Object != out[j].Object {
			return out[i].Object < out[j].Object
		}
		return out[i].Rel < out[j].Rel
	})
	return out, nil
}

// subobjectsOf lists the members of every own (non-inherited) subclass and
// sub-relationship of an object.
func subobjectsOf(s object.View, sur domain.Surrogate) ([]domain.Surrogate, error) {
	o, err := s.Get(sur)
	if err != nil {
		return nil, err
	}
	cat := s.Catalog()
	var names []string
	if o.IsRelationship() {
		if rt, ok := cat.RelType(o.TypeName()); ok {
			for _, sc := range rt.Subclasses {
				names = append(names, sc.Name)
			}
			for _, sr := range rt.SubRels {
				names = append(names, sr.Name)
			}
		}
	} else {
		eff, ok := cat.Effective(o.TypeName())
		if !ok {
			return nil, fmt.Errorf("inherit: no effective type for %q", o.TypeName())
		}
		for _, sc := range eff.Subclasses {
			if !sc.Inherited() {
				names = append(names, sc.Name)
			}
		}
		for _, sr := range eff.Type.SubRels {
			names = append(names, sr.Name)
		}
	}
	var out []domain.Surrogate
	for _, n := range names {
		members, err := s.Members(sur, n)
		if err != nil {
			return nil, err
		}
		out = append(out, members...)
	}
	return out, nil
}

// Expansion is the materialized component tree of a composite object
// (§6: seeing "a composite object with some or all of its components
// materialized").
type Expansion struct {
	Object domain.Surrogate
	Type   string
	Rel    string // relationship from the parent node ("" at the root,
	// "sub:<class>" for subobjects, otherwise the inher-rel-type)
	Children []*Expansion
}

// Size counts the nodes of the expansion.
func (e *Expansion) Size() int {
	n := 1
	for _, c := range e.Children {
		n += c.Size()
	}
	return n
}

// Leaves returns the expansion's leaf objects (the heavily shared
// standard parts at the bottom of component hierarchies).
func (e *Expansion) Leaves() []domain.Surrogate {
	if len(e.Children) == 0 {
		return []domain.Surrogate{e.Object}
	}
	var out []domain.Surrogate
	for _, c := range e.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}

// Expand builds the expansion tree of a composite: subobjects as
// "sub:<class>" children and bound transmitters as inher-rel children.
// Shared components appear once per usage path but cycles are impossible
// (bindings are acyclic).
func Expand(s object.View, root domain.Surrogate) (*Expansion, error) {
	o, err := s.Get(root)
	if err != nil {
		return nil, err
	}
	node := &Expansion{Object: root, Type: o.TypeName()}
	bs := s.BindingsOfInheritor(root)
	for _, rel := range sortedKeys(bs) {
		child, err := Expand(s, bs[rel].Transmitter)
		if err != nil {
			return nil, err
		}
		child.Rel = rel
		node.Children = append(node.Children, child)
	}
	subs, err := subobjectsOf(s, root)
	if err != nil {
		return nil, err
	}
	for _, sub := range subs {
		child, err := Expand(s, sub)
		if err != nil {
			return nil, err
		}
		so, _ := s.Get(sub)
		child.Rel = "sub:" + so.ParentSubclass()
		node.Children = append(node.Children, child)
	}
	return node, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
