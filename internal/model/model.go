// Package model is a deliberately naive reference implementation of the
// object store's journaled operation semantics: plain maps, no locks, no
// shards, no caches, linear scans everywhere. The crash-recovery harness
// replays a recovered journal into both the real store and this model and
// byte-compares their exported snapshots; because the two implementations
// share no mechanism beyond the schema catalog, agreement is strong
// evidence that recovery reproduced the journaled history.
//
// The model mirrors the *effects* of each operation — which objects and
// bindings exist, every attribute value, modification sequences and the
// binding bookkeeping counters — but none of the store's machinery.
// Operations in a journal all succeeded live, so any error from Apply is
// itself a divergence.
package model

import (
	"fmt"
	"sort"

	"cadcam/internal/domain"
	"cadcam/internal/object"
	"cadcam/internal/oplog"
	"cadcam/internal/schema"
)

// Object is the model's view of one non-binding object.
type Object struct {
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

// Binding is the model's view of one inheritance binding, bookkeeping
// held as plain integers.
type Binding struct {
	Sur         domain.Surrogate
	RelType     string
	Transmitter domain.Surrogate
	Inheritor   domain.Surrogate
	Attrs       map[string]domain.Value
	Updates     int64
	LastSeq     int64
	AckSeq      int64
}

// indexDef is the model's view of one secondary-index definition. Only
// the definition is modelled: postings are derived state the store
// rebuilds, and snapshots carry definitions only.
type indexDef struct {
	ClassName  string
	AttrName   string
	CreatedSeq uint64
}

// Model is the oracle state.
type Model struct {
	cat      *schema.Catalog
	classes  map[string]string // class name -> element type
	indexes  map[string]indexDef
	objects  map[domain.Surrogate]*Object
	bindings map[domain.Surrogate]*Binding
	nextSur  uint64
	seq      uint64
	policy   int64
}

// New creates an empty model over the same catalog as the store under
// test.
func New(cat *schema.Catalog) *Model {
	return &Model{
		cat:      cat,
		classes:  make(map[string]string),
		indexes:  make(map[string]indexDef),
		objects:  make(map[domain.Surrogate]*Object),
		bindings: make(map[domain.Surrogate]*Binding),
	}
}

// Load initializes the model from decoded snapshot records (the starting
// point of a journal replay). The bookkeeping attributes travel inside
// binding Attrs, exactly as object.Store.Import consumes them.
func (m *Model) Load(st *object.StoreState) error {
	if len(m.objects) != 0 || len(m.bindings) != 0 || len(m.classes) != 0 {
		return fmt.Errorf("model: Load needs an empty model")
	}
	for _, c := range st.Classes {
		if _, dup := m.classes[c.Name]; dup {
			return fmt.Errorf("model: duplicate class %q", c.Name)
		}
		m.classes[c.Name] = c.ElemType
	}
	for _, ix := range st.Indexes {
		if _, dup := m.indexes[ix.Name]; dup {
			return fmt.Errorf("model: duplicate index %q", ix.Name)
		}
		m.indexes[ix.Name] = indexDef{ClassName: ix.ClassName, AttrName: ix.AttrName, CreatedSeq: ix.CreatedSeq}
	}
	for _, r := range st.Objects {
		if m.taken(r.Sur) {
			return fmt.Errorf("model: duplicate surrogate %s", r.Sur)
		}
		m.objects[r.Sur] = &Object{
			Sur:          r.Sur,
			TypeName:     r.TypeName,
			IsRel:        r.IsRel,
			Parent:       r.Parent,
			ParentSub:    r.ParentSub,
			OwnerClass:   r.OwnerClass,
			ModSeq:       r.ModSeq,
			Attrs:        copyValues(r.Attrs),
			Participants: copyValues(r.Participants),
		}
	}
	for _, r := range st.Bindings {
		if m.taken(r.Sur) {
			return fmt.Errorf("model: duplicate surrogate %s", r.Sur)
		}
		m.bindings[r.Sur] = &Binding{
			Sur:         r.Sur,
			RelType:     r.RelType,
			Transmitter: r.Transmitter,
			Inheritor:   r.Inheritor,
			Updates:     r.Updates,
			LastSeq:     r.LastSeq,
			AckSeq:      r.AckSeq,
			Attrs:       copyValues(r.Attrs),
		}
	}
	m.nextSur = st.NextSur
	m.seq = st.Seq
	return nil
}

func (m *Model) taken(sur domain.Surrogate) bool {
	_, o := m.objects[sur]
	_, b := m.bindings[sur]
	return o || b
}

func copyValues(src map[string]domain.Value) map[string]domain.Value {
	if len(src) == 0 {
		return nil
	}
	out := make(map[string]domain.Value, len(src))
	for k, v := range src {
		out[k] = v
	}
	return out
}

// Export produces the model state in the store's snapshot record form:
// classes sorted by name, objects and bindings in ascending surrogate
// order. Encoding this with wal.EncodeSnapshot must yield the same bytes
// as the recovered store.
func (m *Model) Export() *object.StoreState {
	st := &object.StoreState{NextSur: m.nextSur, Seq: m.seq}
	names := make([]string, 0, len(m.classes))
	for n := range m.classes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st.Classes = append(st.Classes, object.ClassRecord{Name: n, ElemType: m.classes[n]})
	}
	ixNames := make([]string, 0, len(m.indexes))
	for n := range m.indexes {
		ixNames = append(ixNames, n)
	}
	sort.Strings(ixNames)
	for _, n := range ixNames {
		d := m.indexes[n]
		st.Indexes = append(st.Indexes, object.IndexRecord{
			Name: n, ClassName: d.ClassName, AttrName: d.AttrName, CreatedSeq: d.CreatedSeq,
		})
	}
	surs := make([]domain.Surrogate, 0, len(m.objects)+len(m.bindings))
	for s := range m.objects {
		surs = append(surs, s)
	}
	for s := range m.bindings {
		surs = append(surs, s)
	}
	sort.Slice(surs, func(i, j int) bool { return surs[i] < surs[j] })
	for _, sur := range surs {
		if b, ok := m.bindings[sur]; ok {
			st.Bindings = append(st.Bindings, object.BindingRecord{
				Sur:         sur,
				RelType:     b.RelType,
				Transmitter: b.Transmitter,
				Inheritor:   b.Inheritor,
				Attrs:       copyValues(b.Attrs),
				Updates:     b.Updates,
				LastSeq:     b.LastSeq,
				AckSeq:      b.AckSeq,
			})
			continue
		}
		o := m.objects[sur]
		st.Objects = append(st.Objects, object.ObjectRecord{
			Sur:          sur,
			TypeName:     o.TypeName,
			IsRel:        o.IsRel,
			Parent:       o.Parent,
			ParentSub:    o.ParentSub,
			OwnerClass:   o.OwnerClass,
			ModSeq:       o.ModSeq,
			Attrs:        copyValues(o.Attrs),
			Participants: copyValues(o.Participants),
		})
	}
	return st
}

// SetPolicy overrides the delete policy, mirroring the Open-time option
// (which the store applies without journaling it).
func (m *Model) SetPolicy(p object.DeletePolicy) { m.policy = int64(p) }

func (m *Model) bumpSeq(seq uint64) {
	if seq > m.seq {
		m.seq = seq
	}
}

func (m *Model) bumpSur(out domain.Surrogate) {
	if uint64(out) > m.nextSur {
		m.nextSur = uint64(out)
	}
}

// Apply executes one journaled op against the model. Journaled ops
// succeeded live, so every error is a divergence. Version-manager ops are
// not modelled; workloads meant for model checking must not use them.
func (m *Model) Apply(op *oplog.Op) error {
	switch op.Kind {
	case oplog.KindDefineClass:
		if _, dup := m.classes[op.Name]; dup {
			return fmt.Errorf("model: duplicate class %q", op.Name)
		}
		m.classes[op.Name] = op.Name2
		m.bumpSeq(op.Seq)
		return nil

	case oplog.KindNewObject:
		if op.Out == 0 || m.taken(op.Out) {
			return fmt.Errorf("model: NewObject out %s invalid", op.Out)
		}
		if _, ok := m.cat.ObjectType(op.Name); !ok {
			return fmt.Errorf("model: no type %q", op.Name)
		}
		m.objects[op.Out] = &Object{Sur: op.Out, TypeName: op.Name, OwnerClass: op.Name2}
		m.bumpSur(op.Out)
		m.bumpSeq(op.Seq)
		return nil

	case oplog.KindNewSubobject:
		po, ok := m.objects[op.Sur]
		if !ok {
			return fmt.Errorf("model: no parent %s", op.Sur)
		}
		eff, ok := m.cat.Effective(po.TypeName)
		if !ok {
			return fmt.Errorf("model: no effective type %q", po.TypeName)
		}
		sd, ok := eff.SubclassByName(op.Name)
		if !ok || sd.Inherited() {
			return fmt.Errorf("model: %s has no own subclass %q", po.TypeName, op.Name)
		}
		if op.Out == 0 || m.taken(op.Out) {
			return fmt.Errorf("model: NewSubobject out %s invalid", op.Out)
		}
		m.objects[op.Out] = &Object{
			Sur: op.Out, TypeName: sd.ElemType, Parent: op.Sur, ParentSub: op.Name,
		}
		po.ModSeq = op.Seq
		seen := make(map[visit]bool)
		m.notify(op.Sur, op.Name, op.Seq, seen)
		m.bumpSur(op.Out)
		m.bumpSeq(op.Seq)
		return nil

	case oplog.KindNewRelSubobject:
		ro, ok := m.objects[op.Sur]
		if !ok || !ro.IsRel {
			return fmt.Errorf("model: %s is not a relationship object", op.Sur)
		}
		rt, ok := m.cat.RelType(ro.TypeName)
		if !ok {
			return fmt.Errorf("model: no rel type %q", ro.TypeName)
		}
		elem := ""
		for _, sc := range rt.Subclasses {
			if sc.Name == op.Name {
				elem = sc.ElemType
				break
			}
		}
		if elem == "" {
			return fmt.Errorf("model: %s has no subclass %q", ro.TypeName, op.Name)
		}
		if op.Out == 0 || m.taken(op.Out) {
			return fmt.Errorf("model: NewRelSubobject out %s invalid", op.Out)
		}
		m.objects[op.Out] = &Object{
			Sur: op.Out, TypeName: elem, Parent: op.Sur, ParentSub: op.Name,
		}
		m.bumpSur(op.Out)
		m.bumpSeq(op.Seq)
		return nil

	case oplog.KindSetAttr:
		return m.applySetAttr(op)

	case oplog.KindRelate:
		return m.applyRelate(op, 0, "")

	case oplog.KindRelateIn:
		oo, ok := m.objects[op.Sur]
		if !ok {
			return fmt.Errorf("model: no owner %s", op.Sur)
		}
		relType, err := m.subRelType(oo, op.Name)
		if err != nil {
			return err
		}
		if err := m.applyRelate(&oplog.Op{
			Kind: oplog.KindRelate, Name: relType, Parts: op.Parts, Out: op.Out, Seq: op.Seq,
		}, op.Sur, op.Name); err != nil {
			return err
		}
		seen := make(map[visit]bool)
		m.notify(op.Sur, op.Name, op.Seq, seen)
		return nil

	case oplog.KindBind:
		if op.Out == 0 || m.taken(op.Out) {
			return fmt.Errorf("model: Bind out %s invalid", op.Out)
		}
		if m.bindingOf(op.Sur, op.Name) != nil {
			return fmt.Errorf("model: %s already bound in %s", op.Sur, op.Name)
		}
		m.bindings[op.Out] = &Binding{
			Sur: op.Out, RelType: op.Name, Transmitter: op.Sur2, Inheritor: op.Sur,
		}
		m.bumpSur(op.Out)
		m.bumpSeq(op.Seq)
		return nil

	case oplog.KindUnbind:
		b := m.bindingOf(op.Sur, op.Name)
		if b == nil {
			return fmt.Errorf("model: %s not bound in %s", op.Sur, op.Name)
		}
		delete(m.bindings, b.Sur)
		m.bumpSeq(op.Seq)
		return nil

	case oplog.KindAcknowledge:
		b := m.bindingOf(op.Sur, op.Name)
		if b == nil {
			return fmt.Errorf("model: %s not bound in %s", op.Sur, op.Name)
		}
		ack := op.Num
		if ack == 0 {
			ack = b.LastSeq
		}
		if ack > b.AckSeq {
			b.AckSeq = ack
		}
		m.bumpSeq(op.Seq)
		return nil

	case oplog.KindDelete:
		return m.applyDelete(op)

	case oplog.KindDeletePolicy:
		m.policy = op.Num
		return nil

	case oplog.KindCreateIndex:
		if _, dup := m.indexes[op.Name]; dup {
			return fmt.Errorf("model: duplicate index %q", op.Name)
		}
		if _, ok := m.classes[op.Name2]; !ok {
			return fmt.Errorf("model: index %q over unknown class %q", op.Name, op.Name2)
		}
		attr, ok := op.Value.(domain.Str)
		if !ok {
			return fmt.Errorf("model: index %q has no attribute name", op.Name)
		}
		m.indexes[op.Name] = indexDef{ClassName: op.Name2, AttrName: string(attr), CreatedSeq: op.Seq}
		m.bumpSeq(op.Seq)
		return nil

	case oplog.KindDropIndex:
		if _, ok := m.indexes[op.Name]; !ok {
			return fmt.Errorf("model: no index %q", op.Name)
		}
		delete(m.indexes, op.Name)
		m.bumpSeq(op.Seq)
		return nil

	default:
		return fmt.Errorf("model: unmodelled op kind %d", op.Kind)
	}
}

func (m *Model) applySetAttr(op *oplog.Op) error {
	if b, ok := m.bindings[op.Sur]; ok {
		// User-declared attribute of a binding relationship object; the
		// store sets modSeq too, but binding records do not export it.
		b.Attrs = setValue(b.Attrs, op.Name, op.Value)
		m.bumpSeq(op.Seq)
		return nil
	}
	o, ok := m.objects[op.Sur]
	if !ok {
		return fmt.Errorf("model: no object %s", op.Sur)
	}
	o.Attrs = setValue(o.Attrs, op.Name, op.Value)
	o.ModSeq = op.Seq
	if !o.IsRel {
		seen := make(map[visit]bool)
		m.notify(op.Sur, op.Name, op.Seq, seen)
		if o.Parent != 0 {
			m.notify(o.Parent, o.ParentSub, op.Seq, seen)
		}
	}
	m.bumpSeq(op.Seq)
	return nil
}

// setValue mirrors Object.setAttr: null deletes the key, so exported
// attribute maps never carry explicit nulls.
func setValue(attrs map[string]domain.Value, name string, v domain.Value) map[string]domain.Value {
	if domain.IsNull(v) {
		delete(attrs, name)
		return attrs
	}
	if attrs == nil {
		attrs = make(map[string]domain.Value)
	}
	attrs[name] = v
	return attrs
}

func (m *Model) applyRelate(op *oplog.Op, owner domain.Surrogate, subrel string) error {
	rt, ok := m.cat.RelType(op.Name)
	if !ok {
		return fmt.Errorf("model: no rel type %q", op.Name)
	}
	// Exactly the declared roles are kept, as relateLocked assigns them.
	parts := make(map[string]domain.Value, len(rt.Participants))
	for _, p := range rt.Participants {
		v, ok := op.Parts[p.Name]
		if !ok {
			return fmt.Errorf("model: role %q of %s not assigned", p.Name, op.Name)
		}
		parts[p.Name] = v
	}
	if op.Out == 0 || m.taken(op.Out) {
		return fmt.Errorf("model: Relate out %s invalid", op.Out)
	}
	m.objects[op.Out] = &Object{
		Sur: op.Out, TypeName: op.Name, IsRel: true,
		Parent: owner, ParentSub: subrel, Participants: parts,
	}
	m.bumpSur(op.Out)
	m.bumpSeq(op.Seq)
	return nil
}

func (m *Model) subRelType(o *Object, name string) (string, error) {
	if o.IsRel {
		if rt, ok := m.cat.RelType(o.TypeName); ok {
			for i := range rt.SubRels {
				if rt.SubRels[i].Name == name {
					return rt.SubRels[i].RelType, nil
				}
			}
		}
		return "", fmt.Errorf("model: %s has no sub-relationship %q", o.TypeName, name)
	}
	eff, ok := m.cat.Effective(o.TypeName)
	if !ok {
		return "", fmt.Errorf("model: no effective type %q", o.TypeName)
	}
	for i := range eff.Type.SubRels {
		if eff.Type.SubRels[i].Name == name {
			return eff.Type.SubRels[i].RelType, nil
		}
	}
	return "", fmt.Errorf("model: %s has no sub-relationship %q", o.TypeName, name)
}

func (m *Model) bindingOf(inheritor domain.Surrogate, relType string) *Binding {
	for _, b := range m.bindings {
		if b.Inheritor == inheritor && b.RelType == relType {
			return b
		}
	}
	return nil
}

func (m *Model) applyDelete(op *oplog.Op) error {
	// Deleting a binding's own relationship object dissolves the binding.
	if b, ok := m.bindings[op.Sur]; ok {
		delete(m.bindings, b.Sur)
		m.bumpSeq(op.Seq)
		return nil
	}
	if _, ok := m.objects[op.Sur]; !ok {
		return fmt.Errorf("model: no object %s", op.Sur)
	}
	cascade := m.collectCascade(op.Sur)
	// Policy: a cascaded transmitter with an inheritor outside the
	// cascade blocks the delete under DeleteRestrict.
	if m.policy == int64(object.DeleteRestrict) {
		for _, b := range m.bindings {
			if cascade[b.Transmitter] && !cascade[b.Inheritor] {
				return fmt.Errorf("model: %s has inheritor %s via %s", b.Transmitter, b.Inheritor, b.RelType)
			}
		}
	}
	// Parents outside the cascade lose a subclass member.
	type parentSub struct {
		parent domain.Surrogate
		sub    string
	}
	members := make([]domain.Surrogate, 0, len(cascade))
	for s := range cascade {
		members = append(members, s)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	var touched []parentSub
	for _, s := range members {
		if o := m.objects[s]; o.Parent != 0 && !cascade[o.Parent] {
			touched = append(touched, parentSub{o.Parent, o.ParentSub})
		}
	}
	// Every binding touching the cascade dissolves with it.
	for sur, b := range m.bindings {
		if cascade[b.Transmitter] || cascade[b.Inheritor] {
			delete(m.bindings, sur)
		}
	}
	for _, s := range members {
		delete(m.objects, s)
	}
	seen := make(map[visit]bool)
	for _, ps := range touched {
		if po, ok := m.objects[ps.parent]; ok {
			po.ModSeq = op.Seq
		}
		m.notify(ps.parent, ps.sub, op.Seq, seen)
	}
	m.bumpSeq(op.Seq)
	return nil
}

// collectCascade computes the dependency closure of a delete by fixpoint:
// subobjects (transitively) and relationship objects referencing anything
// in the closure. Binding objects are tracked separately and never enter
// the closure.
func (m *Model) collectCascade(root domain.Surrogate) map[domain.Surrogate]bool {
	acc := map[domain.Surrogate]bool{root: true}
	for changed := true; changed; {
		changed = false
		for sur, o := range m.objects {
			if acc[sur] {
				continue
			}
			if o.Parent != 0 && acc[o.Parent] {
				acc[sur] = true
				changed = true
				continue
			}
			if o.IsRel && participantsTouch(o.Participants, acc) {
				acc[sur] = true
				changed = true
			}
		}
	}
	return acc
}

func participantsTouch(parts map[string]domain.Value, acc map[domain.Surrogate]bool) bool {
	var touch func(v domain.Value) bool
	touch = func(v domain.Value) bool {
		switch x := v.(type) {
		case domain.Ref:
			return acc[domain.Surrogate(x)]
		case *domain.Set:
			for _, e := range x.Elems() {
				if touch(e) {
					return true
				}
			}
		}
		return false
	}
	for _, v := range parts {
		if touch(v) {
			return true
		}
	}
	return false
}

// visit cycle-breaks the notification closure per (transmitter, member).
type visit struct {
	transmitter domain.Surrogate
	member      string
}

// notify mirrors the store's update fan-out: every binding whose
// transmitter changed a permeable member bumps TransmitterUpdates and
// raises LastUpdateSeq, transitively through the inheritor. The bumps
// commute, so scan order is irrelevant to the final state.
func (m *Model) notify(transmitter domain.Surrogate, member string, seq uint64, seen map[visit]bool) {
	k := visit{transmitter, member}
	if seen[k] {
		return
	}
	seen[k] = true
	for _, b := range m.bindings {
		if b.Transmitter != transmitter {
			continue
		}
		rel, ok := m.cat.InherRelType(b.RelType)
		if !ok || !rel.Inherits(member) {
			continue
		}
		b.Updates++
		if int64(seq) > b.LastSeq {
			b.LastSeq = int64(seq)
		}
		m.notify(b.Inheritor, member, seq, seen)
	}
}
