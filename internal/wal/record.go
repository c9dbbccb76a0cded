package wal

import (
	"slices"
	"sort"

	"cadcam/internal/codec"
	"cadcam/internal/domain"
	"cadcam/internal/object"
	"cadcam/internal/version"
)

// Shared record codecs: the full snapshot, the checkpoint manifest and
// the per-shard segments all serialize the same logical records, so the
// field order lives here exactly once. Changing any of these functions
// changes the byte format of every snapshot artifact — including the
// canonical encoding the crash-recovery oracle byte-compares.

// Minimum encoded sizes, for bounding decoded counts against the bytes
// left: an object record is nine one-byte fields at least, a binding
// five, an attribute entry a name index plus a value tag.
const (
	minObjectRecord  = 9
	minBindingRecord = 5
	minAttrEntry     = 2
)

// encodeRecords writes a blob's object and binding records. Type,
// relationship, class and attribute names repeat across thousands of
// records but come from a small schema, so the section opens with a
// string table holding each distinct name once and every record names
// them by uvarint index. The table is sorted, so equal record lists
// encode to identical bytes whatever order their maps were filled in.
func encodeRecords(e *codec.Buf, objs []object.ObjectRecord, binds []object.BindingRecord) {
	t := newNameTable(objs, binds)
	e.Strs(t.names)
	e.Uvarint(uint64(len(objs)))
	for i := range objs {
		o := &objs[i]
		e.Sur(o.Sur)
		t.name(e, o.TypeName)
		e.Bool(o.IsRel)
		e.Sur(o.Parent)
		t.name(e, o.ParentSub)
		t.name(e, o.OwnerClass)
		e.Uvarint(o.ModSeq)
		t.values(e, o.Attrs)
		t.values(e, o.Participants)
	}
	e.Uvarint(uint64(len(binds)))
	for i := range binds {
		b := &binds[i]
		e.Sur(b.Sur)
		t.name(e, b.RelType)
		e.Sur(b.Transmitter)
		e.Sur(b.Inheritor)
		t.values(e, b.Attrs)
	}
}

// decodeRecords reads what encodeRecords writes. Every name index is
// bounds-checked against the table, and decoded records share the
// table's strings. Explicit nulls in object attribute maps are deleted
// keys.
func decodeRecords(r *codec.Reader) ([]object.ObjectRecord, []object.BindingRecord) {
	names := r.Strs()
	var objs []object.ObjectRecord
	if n := r.Count(minObjectRecord); n > 0 {
		objs = make([]object.ObjectRecord, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			o := object.ObjectRecord{
				Sur:        r.Sur(),
				TypeName:   r.Pick(names),
				IsRel:      r.Bool(),
				Parent:     r.Sur(),
				ParentSub:  r.Pick(names),
				OwnerClass: r.Pick(names),
				ModSeq:     r.Uvarint(),
			}
			o.Attrs = decodeValues(r, names)
			o.Participants = decodeValues(r, names)
			normalizeNulls(o.Attrs)
			normalizeNulls(o.Participants)
			objs = append(objs, o)
		}
	}
	var binds []object.BindingRecord
	if n := r.Count(minBindingRecord); n > 0 {
		binds = make([]object.BindingRecord, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			binds = append(binds, object.BindingRecord{
				Sur:         r.Sur(),
				RelType:     r.Pick(names),
				Transmitter: r.Sur(),
				Inheritor:   r.Sur(),
				Attrs:       decodeValues(r, names),
			})
		}
	}
	return objs, binds
}

// nameTable is the string table of one record section: the sorted
// distinct names and each name's index.
type nameTable struct {
	names []string
	index map[string]uint64
	ids   []uint64 // reused buffer for ordering one map's entries
}

func newNameTable(objs []object.ObjectRecord, binds []object.BindingRecord) *nameTable {
	index := make(map[string]uint64)
	addKeys := func(m map[string]domain.Value) {
		for k := range m {
			index[k] = 0
		}
	}
	for i := range objs {
		o := &objs[i]
		index[o.TypeName] = 0
		index[o.ParentSub] = 0
		index[o.OwnerClass] = 0
		addKeys(o.Attrs)
		addKeys(o.Participants)
	}
	for i := range binds {
		index[binds[i].RelType] = 0
		addKeys(binds[i].Attrs)
	}
	names := make([]string, 0, len(index))
	for s := range index {
		names = append(names, s)
	}
	sort.Strings(names)
	for i, s := range names {
		index[s] = uint64(i)
	}
	return &nameTable{names: names, index: index}
}

func (t *nameTable) name(e *codec.Buf, s string) { e.Uvarint(t.index[s]) }

// values writes a name->value map in name order, which is index order
// because the table is sorted.
func (t *nameTable) values(e *codec.Buf, m map[string]domain.Value) {
	t.ids = t.ids[:0]
	for k := range m {
		t.ids = append(t.ids, t.index[k])
	}
	slices.Sort(t.ids)
	e.Uvarint(uint64(len(t.ids)))
	for _, id := range t.ids {
		e.Uvarint(id)
		e.Value(m[t.names[id]])
	}
}

// decodeValues reads a map written by nameTable.values; empty decodes as
// nil.
func decodeValues(r *codec.Reader, names []string) map[string]domain.Value {
	n := r.Count(minAttrEntry)
	if n == 0 {
		return nil
	}
	m := make(map[string]domain.Value, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.Pick(names)
		m[k] = r.Value()
	}
	return m
}

func normalizeNulls(m map[string]domain.Value) {
	for k, v := range m {
		if domain.IsNull(v) {
			delete(m, k)
		}
	}
}

func encodeClassRecords(e *codec.Buf, classes []object.ClassRecord) {
	e.Uvarint(uint64(len(classes)))
	for _, c := range classes {
		e.Str(c.Name)
		e.Str(c.ElemType)
	}
}

func decodeClassRecords(r *codec.Reader) []object.ClassRecord {
	var classes []object.ClassRecord
	for i, n := uint64(0), r.Uvarint(); i < n && r.Err() == nil; i++ {
		classes = append(classes, object.ClassRecord{Name: r.Str(), ElemType: r.Str()})
	}
	return classes
}

func encodeIndexRecords(e *codec.Buf, idxs []object.IndexRecord) {
	e.Uvarint(uint64(len(idxs)))
	for _, ix := range idxs {
		e.Str(ix.Name)
		e.Str(ix.ClassName)
		e.Str(ix.AttrName)
		e.Uvarint(ix.CreatedSeq)
	}
}

func decodeIndexRecords(r *codec.Reader) []object.IndexRecord {
	var idxs []object.IndexRecord
	for i, n := uint64(0), r.Uvarint(); i < n && r.Err() == nil; i++ {
		idxs = append(idxs, object.IndexRecord{
			Name:       r.Str(),
			ClassName:  r.Str(),
			AttrName:   r.Str(),
			CreatedSeq: r.Uvarint(),
		})
	}
	return idxs
}

func encodeVersionState(e *codec.Buf, vs *version.ManagerState) {
	e.Uvarint(uint64(len(vs.Designs)))
	for _, d := range vs.Designs {
		e.Str(d.Name)
		e.Sur(d.Interface)
		e.Sur(d.Default)
	}
	e.Uvarint(uint64(len(vs.Versions)))
	for _, v := range vs.Versions {
		e.Sur(v.Object)
		e.Str(v.Design)
		e.Uvarint(uint64(v.No))
		e.Str(v.Alternative)
		e.Str(string(v.Status))
		e.Surs(v.DerivedFrom)
	}
}

func decodeVersionState(r *codec.Reader) *version.ManagerState {
	vs := &version.ManagerState{}
	for i, n := uint64(0), r.Uvarint(); i < n && r.Err() == nil; i++ {
		vs.Designs = append(vs.Designs, version.DesignRecord{
			Name:      r.Str(),
			Interface: r.Sur(),
			Default:   r.Sur(),
		})
	}
	for i, n := uint64(0), r.Uvarint(); i < n && r.Err() == nil; i++ {
		vs.Versions = append(vs.Versions, version.VersionRecord{
			Object:      r.Sur(),
			Design:      r.Str(),
			No:          int(r.Uvarint()),
			Alternative: r.Str(),
			Status:      version.Status(r.Str()),
			DerivedFrom: r.Surs(),
		})
	}
	return vs
}
