// Package schema implements the type catalog of the object model:
// object types, relationship types and inheritance-relationship types
// (§3 and §4.1 of the paper), including validation and the computation of
// *effective* types — the attribute/subclass structure an object type has
// after type-level inheritance through every `inheritor-in` declaration.
package schema

import (
	"cadcam/internal/domain"
	"cadcam/internal/expr"
)

// Attribute declares a named, typed attribute of an object or
// relationship type.
type Attribute struct {
	Name   string
	Domain *domain.Domain
}

// Constraint is a local integrity constraint or where-restriction: its
// source text for diagnostics and the expression, compiled once when it
// is parsed. E.Expr() is the AST.
type Constraint struct {
	Src string
	E   *expr.Compiled
}

// NewConstraint parses and compiles src into a Constraint; it is the way
// constraints and where-restrictions enter a type definition.
func NewConstraint(src string) (Constraint, error) {
	e, err := expr.Parse(src)
	if err != nil {
		return Constraint{}, err
	}
	return Constraint{Src: src, E: expr.Compile(e)}, nil
}

// MustConstraint is NewConstraint for statically known-good sources.
func MustConstraint(src string) Constraint {
	c, err := NewConstraint(src)
	if err != nil {
		panic(err)
	}
	return c
}

// Subclass declares a local object subclass of a complex object or
// relationship type ("types-of-subclasses:"). Members are subobjects that
// live and die with the owning object.
//
// Exactly one of ElemType and Inline is set. Inline captures the paper's
// implicitly declared member types, e.g. the SubGates subclass of
// GateImplementation, whose members carry a GateLocation attribute and are
// inheritors in AllOf_GateInterface:
//
//	types-of-subclasses:
//	   SubGates:
//	      inheritor-in:   AllOf_GateInterface;
//	      attributes:     GateLocation: Point;
type Subclass struct {
	Name     string
	ElemType string      // named member type
	Inline   *ObjectType // anonymous member type; registered as Owner.Name
}

// SubRel declares a local relationship subclass
// ("types-of-subrels:"), optionally restricted by a where clause such as
//
//	Wires: WireType
//	   where (Wire.Pin1 in Pins or Wire.Pin1 in SubGates.Pins) and ...
//
// The where expression is checked for every relationship object created in
// the subclass; inside it the participant roles of the relationship type
// resolve against the relationship object, and subclass names against the
// owning complex object.
type SubRel struct {
	Name    string
	RelType string
	Where   *Constraint // nil = unrestricted
}

// ObjectType declares an object type (§3). The zero value is not valid;
// fill the fields and register the type with a Catalog.
type ObjectType struct {
	Name string
	// Anonymous marks inline member types generated for subclasses.
	Anonymous bool
	// InheritorIn lists the inheritance-relationship types this type is an
	// inheritor in (§4.1 "inheritor-in:"). Order is significant only for
	// deterministic error messages.
	InheritorIn []string
	Attributes  []Attribute
	Subclasses  []Subclass
	SubRels     []SubRel
	Constraints []Constraint
}

// Participant declares one role of a relationship type ("relates:").
// SetOf marks multi-valued roles such as
//
//	relates: Bores: set-of object-of-type BoreType;
type Participant struct {
	Name  string
	Type  string // required object type, "" = any object
	SetOf bool
}

// RelType declares a relationship type (§3). Relationship objects may
// carry attributes, local subclasses (the bolt and nut *inside* a
// ScrewingType relationship) and constraints, exactly like objects.
type RelType struct {
	Name         string
	Participants []Participant
	Attributes   []Attribute
	Subclasses   []Subclass
	SubRels      []SubRel
	Constraints  []Constraint
}

// InherRelType declares an inheritance relationship type (§4.1):
//
//	inher-rel-type AllOf_GateInterface =
//	   transmitter: object-of-type GateInterface;
//	   inheritor:   object;
//	   inheriting:  Length, Width, Pins;
//	end;
//
// Transmitter is required. An empty Inheritor admits objects of any type.
// Inheriting lists the attributes and subclasses of the transmitter's
// *effective* type that are permeable. Each concrete binding is itself a
// relationship object which may carry the declared attributes.
type InherRelType struct {
	Name        string
	Transmitter string
	Inheritor   string // "" = any object type
	Inheriting  []string
	Attributes  []Attribute
	Constraints []Constraint
}

// Inherits reports whether name is listed in the permeability clause.
func (r *InherRelType) Inherits(name string) bool {
	for _, n := range r.Inheriting {
		if n == name {
			return true
		}
	}
	return false
}

func (t *ObjectType) attribute(name string) *Attribute {
	for i := range t.Attributes {
		if t.Attributes[i].Name == name {
			return &t.Attributes[i]
		}
	}
	return nil
}

func (t *ObjectType) subclass(name string) *Subclass {
	for i := range t.Subclasses {
		if t.Subclasses[i].Name == name {
			return &t.Subclasses[i]
		}
	}
	return nil
}

func (t *ObjectType) subRel(name string) *SubRel {
	for i := range t.SubRels {
		if t.SubRels[i].Name == name {
			return &t.SubRels[i]
		}
	}
	return nil
}
