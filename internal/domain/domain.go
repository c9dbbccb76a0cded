// Package domain implements the value and type system of the object model
// described in "Complex and Composite Objects in CAD/CAM Databases"
// (Wilkes, Klahold, Schlageter, 1988/89), section 3:
//
//	Attribute values belong to a particular domain. Domains may be simple
//	(integer, string, etc.) or structured (using constructors as record,
//	list-of, set-of, etc.).
//
// A Domain describes the set of admissible values; a Value is a concrete
// attribute value. Domains are immutable after construction and safe for
// concurrent use.
package domain

import (
	"fmt"
	"strings"
)

// Kind enumerates the built-in domain constructors of the object model.
type Kind uint8

const (
	KindInvalid   Kind = iota
	KindInteger        // 64-bit signed integer
	KindReal           // IEEE-754 double
	KindString         // character string
	KindBoolean        // truth value
	KindEnum           // named enumeration domain, e.g. domain I/O = (IN, OUT)
	KindRecord         // record constructor, e.g. domain Point = (X, Y: integer)
	KindList           // list-of constructor (ordered, duplicates allowed)
	KindSet            // set-of constructor (unordered, duplicates collapsed)
	KindMatrix         // matrix-of constructor, e.g. Function: matrix-of boolean
	KindSurrogate      // reference to an object by its system-wide surrogate
	KindNull           // the kind of the distinguished null value
)

// String returns the DDL spelling of the kind.
func (k Kind) String() string {
	switch k {
	case KindInteger:
		return "integer"
	case KindReal:
		return "real"
	case KindString:
		return "string"
	case KindBoolean:
		return "boolean"
	case KindEnum:
		return "enum"
	case KindRecord:
		return "record"
	case KindList:
		return "list-of"
	case KindSet:
		return "set-of"
	case KindMatrix:
		return "matrix-of"
	case KindSurrogate:
		return "object"
	case KindNull:
		return "null"
	default:
		return "invalid"
	}
}

// Field is one named component of a record domain.
type Field struct {
	Name string
	Dom  *Domain
}

// Domain describes the set of values an attribute may take. The zero value
// is invalid; use the constructor functions.
type Domain struct {
	name    string // optional user-declared name ("" for anonymous)
	kind    Kind
	symbols []string // KindEnum: declared symbols in declaration order
	fields  []Field  // KindRecord
	elem    *Domain  // KindList, KindSet, KindMatrix
	objType string   // KindSurrogate: required object type name ("" = any object)
}

var (
	integerDom = &Domain{kind: KindInteger}
	realDom    = &Domain{kind: KindReal}
	stringDom  = &Domain{kind: KindString}
	booleanDom = &Domain{kind: KindBoolean}
	anyObjDom  = &Domain{kind: KindSurrogate}
)

// Integer returns the built-in integer domain.
func Integer() *Domain { return integerDom }

// Real returns the built-in real domain.
func Real() *Domain { return realDom }

// String_ returns the built-in string domain. (Named with a trailing
// underscore because Domain has a String method.)
func String_() *Domain { return stringDom }

// Boolean returns the built-in boolean domain.
func Boolean() *Domain { return booleanDom }

// Enum constructs a named enumeration domain such as
//
//	domain I/O = (IN, OUT);
//
// It panics if no symbols are given or a symbol repeats, since domains are
// always constructed from validated schema definitions.
func Enum(name string, symbols ...string) *Domain {
	if len(symbols) == 0 {
		panic("domain: enum needs at least one symbol")
	}
	seen := make(map[string]bool, len(symbols))
	for _, s := range symbols {
		if seen[s] {
			panic(fmt.Sprintf("domain: duplicate enum symbol %q", s))
		}
		seen[s] = true
	}
	return &Domain{name: name, kind: KindEnum, symbols: append([]string(nil), symbols...)}
}

// Record constructs a record domain such as
//
//	domain Point = (X, Y: integer);
//
// Field names must be unique.
func Record(name string, fields ...Field) *Domain {
	seen := make(map[string]bool, len(fields))
	for _, f := range fields {
		if f.Dom == nil {
			panic(fmt.Sprintf("domain: record field %q has nil domain", f.Name))
		}
		if seen[f.Name] {
			panic(fmt.Sprintf("domain: duplicate record field %q", f.Name))
		}
		seen[f.Name] = true
	}
	return &Domain{name: name, kind: KindRecord, fields: append([]Field(nil), fields...)}
}

// ListOf constructs a list-of domain.
func ListOf(elem *Domain) *Domain { return &Domain{kind: KindList, elem: elem} }

// SetOf constructs a set-of domain.
func SetOf(elem *Domain) *Domain { return &Domain{kind: KindSet, elem: elem} }

// MatrixOf constructs a matrix-of domain.
func MatrixOf(elem *Domain) *Domain { return &Domain{kind: KindMatrix, elem: elem} }

// ObjectRef constructs a surrogate domain restricted to objects of the
// named type; an empty name admits objects of any type (the paper's
// "<name>: object").
func ObjectRef(objType string) *Domain {
	if objType == "" {
		return anyObjDom
	}
	return &Domain{kind: KindSurrogate, objType: objType}
}

// Named returns a copy of d carrying a user-declared domain name, as in
// "domain AreaDom = record: ...".
func (d *Domain) Named(name string) *Domain {
	c := *d
	c.name = name
	return &c
}

// Name reports the user-declared name, or "" for anonymous domains.
func (d *Domain) Name() string { return d.name }

// Kind reports the domain constructor.
func (d *Domain) Kind() Kind { return d.kind }

// SymbolIndex reports the declaration position of an enum symbol, or -1.
func (d *Domain) SymbolIndex(sym string) int {
	for i, s := range d.symbols {
		if s == sym {
			return i
		}
	}
	return -1
}

// Fields returns the fields of a record domain.
func (d *Domain) Fields() []Field { return d.fields }

// FieldDomain returns the domain of the named record field, or nil.
func (d *Domain) FieldDomain(name string) *Domain {
	for _, f := range d.fields {
		if f.Name == name {
			return f.Dom
		}
	}
	return nil
}

// Elem returns the element domain of a list/set/matrix domain.
func (d *Domain) Elem() *Domain { return d.elem }

// ObjectType returns the required object type of a surrogate domain
// ("" = any object).
func (d *Domain) ObjectType() string { return d.objType }

// String renders the domain in DDL-like syntax.
func (d *Domain) String() string {
	if d == nil {
		return "<nil>"
	}
	if d.name != "" {
		return d.name
	}
	switch d.kind {
	case KindEnum:
		return "(" + strings.Join(d.symbols, ", ") + ")"
	case KindRecord:
		var b strings.Builder
		b.WriteString("record (")
		for i, f := range d.fields {
			if i > 0 {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "%s: %s", f.Name, f.Dom)
		}
		b.WriteString(")")
		return b.String()
	case KindList:
		return "list-of " + d.elem.String()
	case KindSet:
		return "set-of " + d.elem.String()
	case KindMatrix:
		return "matrix-of " + d.elem.String()
	case KindSurrogate:
		if d.objType != "" {
			return "object-of-type " + d.objType
		}
		return "object"
	default:
		return d.kind.String()
	}
}

// Same reports structural equality of two domains (names are ignored so a
// named alias matches its definition).
func Same(a, b *Domain) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindEnum:
		if len(a.symbols) != len(b.symbols) {
			return false
		}
		for i := range a.symbols {
			if a.symbols[i] != b.symbols[i] {
				return false
			}
		}
		return true
	case KindRecord:
		if len(a.fields) != len(b.fields) {
			return false
		}
		for i := range a.fields {
			if a.fields[i].Name != b.fields[i].Name || !Same(a.fields[i].Dom, b.fields[i].Dom) {
				return false
			}
		}
		return true
	case KindList, KindSet, KindMatrix:
		return Same(a.elem, b.elem)
	case KindSurrogate:
		return a.objType == b.objType
	default:
		return true
	}
}
