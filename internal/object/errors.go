package object

import (
	"errors"
	"fmt"

	"cadcam/internal/domain"
)

// Sentinel errors; operations wrap them with context, so test with
// errors.Is.
var (
	// ErrNoSuchObject reports an unknown surrogate.
	ErrNoSuchObject = errors.New("object: no such object")
	// ErrNoSuchType reports an unknown type name.
	ErrNoSuchType = errors.New("object: no such type")
	// ErrNoSuchClass reports an unknown class or subclass name.
	ErrNoSuchClass = errors.New("object: no such class")
	// ErrNoSuchAttribute reports an attribute not in the effective type.
	ErrNoSuchAttribute = errors.New("object: no such attribute")
	// ErrInheritedAttribute reports a write to data the object inherits:
	// "The inherited data must not be updated in the inheritor" (§2).
	ErrInheritedAttribute = errors.New("object: attribute is inherited and read-only in the inheritor")
	// ErrTypeMismatch reports a value or object of the wrong type.
	ErrTypeMismatch = errors.New("object: type mismatch")
	// ErrAlreadyBound reports a second binding for the same inheritor and
	// inheritance relationship type.
	ErrAlreadyBound = errors.New("object: inheritor already bound in this relationship")
	// ErrNotBound reports a missing binding.
	ErrNotBound = errors.New("object: inheritor not bound in this relationship")
	// ErrInheritanceCycle reports a binding that would make value
	// inheritance cyclic at the object level.
	ErrInheritanceCycle = errors.New("object: binding would create an inheritance cycle")
	// ErrNotInheritor reports a bind attempt by a type that does not
	// declare inheritor-in for the relationship (§4.1: "it must be
	// explicitly stated that the type is an inheritor type").
	ErrNotInheritor = errors.New("object: type does not declare inheritor-in for this relationship")
	// ErrHasInheritors reports a transmitter delete under the Restrict
	// policy while inheritors are still bound to it.
	ErrHasInheritors = errors.New("object: transmitter still has bound inheritors")
	// ErrConstraint reports a violated local integrity constraint.
	ErrConstraint = errors.New("object: constraint violated")
	// ErrNotSubobject reports a subobject operation on a top-level object.
	ErrNotSubobject = errors.New("object: not a subobject")
	// ErrClosed reports a mutation of a closed store.
	ErrClosed = errors.New("object: store is closed")
)

func noObject(sur domain.Surrogate) error {
	return fmt.Errorf("%w: %s", ErrNoSuchObject, sur)
}
