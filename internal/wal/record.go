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

// Object record flags: which optional fields follow. Any other bit is
// corrupt.
const (
	flagRel byte = 1 << iota
	flagParent
	flagParentSub
	flagOwnerClass
	flagAttrs
	flagParticipants
	flagsDefined = 1<<iota - 1
)

// Minimum encoded sizes, for bounding decoded counts against the bytes
// left: an object record is four one-byte fields at least (surrogate,
// type, flags, ModSeq), a binding eight (surrogate, relationship,
// transmitter, inheritor, three bookkeeping counters, attribute count),
// an attribute entry a name index plus a value tag.
const (
	minObjectRecord  = 4
	minBindingRecord = 8
	minAttrEntry     = 2
)

// encodeRecords writes a blob's object and binding records. Type,
// relationship, class and attribute names repeat across thousands of
// records but come from a small schema, so the section opens with a
// string table holding each distinct name once and every record names
// them by uvarint index. The table is sorted, so equal record lists
// encode to identical bytes whatever order their maps were filled in.
//
// Numbers are written as zigzag varints relative to a near neighbour
// (DESIGN.md §6 note 23): each Sur as a delta from the previous Sur of
// its list, Parent, Transmitter and Inheritor as offsets from the
// record's Sur, each ModSeq as a delta from the previous object's and
// AckSeq from the binding's LastSeq. An object's flags byte says which
// of its optional fields follow; a binding's bookkeeping is positional.
func encodeRecords(e *codec.Buf, objs []object.ObjectRecord, binds []object.BindingRecord) {
	t := newNameTable(objs, binds)
	e.Strs(t.names)
	e.Uvarint(uint64(len(objs)))
	var sur domain.Surrogate
	var mod uint64
	for i := range objs {
		o := &objs[i]
		e.Varint(int64(o.Sur - sur))
		sur = o.Sur
		t.name(e, o.TypeName)
		f := objectFlags(o)
		e.Byte(f)
		if f&flagParent != 0 {
			e.Varint(int64(o.Parent - o.Sur))
		}
		if f&flagParentSub != 0 {
			t.name(e, o.ParentSub)
		}
		if f&flagOwnerClass != 0 {
			t.name(e, o.OwnerClass)
		}
		e.Varint(int64(o.ModSeq - mod))
		mod = o.ModSeq
		if f&flagAttrs != 0 {
			t.values(e, o.Attrs)
		}
		if f&flagParticipants != 0 {
			t.values(e, o.Participants)
		}
	}
	e.Uvarint(uint64(len(binds)))
	sur = 0
	for i := range binds {
		b := &binds[i]
		e.Varint(int64(b.Sur - sur))
		sur = b.Sur
		t.name(e, b.RelType)
		e.Varint(int64(b.Transmitter - b.Sur))
		e.Varint(int64(b.Inheritor - b.Sur))
		e.Uvarint(uint64(b.Updates))
		e.Uvarint(uint64(b.LastSeq))
		e.Varint(b.AckSeq - b.LastSeq)
		t.values(e, b.Attrs)
	}
}

// objectFlags returns an object record's flags byte.
func objectFlags(o *object.ObjectRecord) byte {
	var f byte
	// In flag-bit order: flagRel first.
	for bit, on := range [...]bool{o.IsRel, o.Parent != 0, o.ParentSub != "", o.OwnerClass != "",
		len(o.Attrs) > 0, len(o.Participants) > 0} {
		if on {
			f |= 1 << bit
		}
	}
	return f
}

// decodeRecords reads what encodeRecords writes. Every name index is
// bounds-checked against the table, an undefined flag bit fails the
// reader, and decoded records share the table's strings. Explicit nulls
// in object attribute maps are deleted keys.
func decodeRecords(r *codec.Reader) ([]object.ObjectRecord, []object.BindingRecord) {
	names := r.Strs()
	var objs []object.ObjectRecord
	if n := r.Count(minObjectRecord); n > 0 {
		objs = make([]object.ObjectRecord, 0, n)
		var sur domain.Surrogate
		var mod uint64
		for i := 0; i < n && r.Err() == nil; i++ {
			sur += domain.Surrogate(r.Varint())
			o := object.ObjectRecord{Sur: sur, TypeName: r.Pick(names)}
			f := r.Flags(flagsDefined)
			o.IsRel = f&flagRel != 0
			if f&flagParent != 0 {
				o.Parent = sur + domain.Surrogate(r.Varint())
			}
			if f&flagParentSub != 0 {
				o.ParentSub = r.Pick(names)
			}
			if f&flagOwnerClass != 0 {
				o.OwnerClass = r.Pick(names)
			}
			mod += uint64(r.Varint())
			o.ModSeq = mod
			if f&flagAttrs != 0 {
				o.Attrs = withoutNulls(decodeValues(r, names))
			}
			if f&flagParticipants != 0 {
				o.Participants = withoutNulls(decodeValues(r, names))
			}
			objs = append(objs, o)
		}
	}
	var binds []object.BindingRecord
	if n := r.Count(minBindingRecord); n > 0 {
		binds = make([]object.BindingRecord, 0, n)
		var sur domain.Surrogate
		for i := 0; i < n && r.Err() == nil; i++ {
			sur += domain.Surrogate(r.Varint())
			b := object.BindingRecord{
				Sur:         sur,
				RelType:     r.Pick(names),
				Transmitter: sur + domain.Surrogate(r.Varint()),
				Inheritor:   sur + domain.Surrogate(r.Varint()),
				Updates:     int64(r.Uvarint()),
				LastSeq:     int64(r.Uvarint()),
			}
			b.AckSeq = b.LastSeq + r.Varint()
			b.Attrs = decodeValues(r, names)
			binds = append(binds, b)
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

// withoutNulls deletes m's explicit nulls; a map left empty reads as nil.
func withoutNulls(m map[string]domain.Value) map[string]domain.Value {
	for k, v := range m {
		if domain.IsNull(v) {
			delete(m, k)
		}
	}
	if len(m) == 0 {
		return nil
	}
	return m
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
