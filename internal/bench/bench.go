// Package bench builds the parameterized workloads shared by cadbench's
// paper experiments and the root benchmarks and timing tests: flip-flop
// composites (Figure 1), interface hierarchies (§4.2), steel structures
// (Figure 5) and version sets (§6).
package bench

import (
	"fmt"

	"cadcam"
	"cadcam/internal/domain"
	"cadcam/internal/paperschema"
	"cadcam/internal/schema"
)

// Gates opens an in-memory database with the chip-design schema.
func Gates() (*cadcam.Database, error) {
	return cadcam.OpenMemory(paperschema.MustGates())
}

// Steel opens an in-memory database with the steel-construction schema.
func Steel() (*cadcam.Database, error) {
	return cadcam.OpenMemory(paperschema.MustSteel())
}

// Interface builds a two-level gate interface (hierarchy root owning the
// pins + interface version) and returns the interface.
func Interface(db *cadcam.Database, nIn, nOut int, length, width int64) (cadcam.Surrogate, error) {
	root, err := db.NewObject(paperschema.TypeGateInterfaceI, "")
	if err != nil {
		return 0, err
	}
	id := int64(1)
	addPin := func(dir string) error {
		pin, err := db.NewSubobject(root, "Pins")
		if err != nil {
			return err
		}
		if err := db.SetAttr(pin, "InOut", cadcam.Sym(dir)); err != nil {
			return err
		}
		if err := db.SetAttr(pin, "PinId", cadcam.Int(id)); err != nil {
			return err
		}
		id++
		return nil
	}
	for i := 0; i < nIn; i++ {
		if err := addPin("IN"); err != nil {
			return 0, err
		}
	}
	for i := 0; i < nOut; i++ {
		if err := addPin("OUT"); err != nil {
			return 0, err
		}
	}
	iface, err := db.NewObject(paperschema.TypeGateInterface, "")
	if err != nil {
		return 0, err
	}
	if _, err := db.Bind(paperschema.RelAllOfGateInterfaceI, iface, root); err != nil {
		return 0, err
	}
	if err := db.SetAttr(iface, "Length", cadcam.Int(length)); err != nil {
		return 0, err
	}
	if err := db.SetAttr(iface, "Width", cadcam.Int(width)); err != nil {
		return 0, err
	}
	return iface, nil
}

// FlipFlop describes a constructed composite gate.
type FlipFlop struct {
	Iface     cadcam.Surrogate // the composite's own interface
	CompIface cadcam.Surrogate // the component interface (shared by subgates)
	Impl      cadcam.Surrogate
	SubGates  []cadcam.Surrogate
	Wires     []cadcam.Surrogate
}

// BuildFlipFlop constructs a Figure-1 composite with nSub component
// subgates, each bound to one shared NAND interface, wired to the
// composite's external pins.
func BuildFlipFlop(db *cadcam.Database, nSub int) (*FlipFlop, error) {
	compIface, err := Interface(db, 2, 1, 4, 2)
	if err != nil {
		return nil, err
	}
	ownIface, err := Interface(db, nSub, nSub, 10, 6)
	if err != nil {
		return nil, err
	}
	ff := &FlipFlop{Iface: ownIface, CompIface: compIface}
	ff.Impl, err = db.NewObject(paperschema.TypeGateImplementation, "")
	if err != nil {
		return nil, err
	}
	if _, err := db.Bind(paperschema.RelAllOfGateInterface, ff.Impl, ownIface); err != nil {
		return nil, err
	}
	if err := db.SetAttr(ff.Impl, "TimeBehavior", cadcam.Int(12)); err != nil {
		return nil, err
	}
	ownPins, err := db.Members(ff.Impl, "Pins")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nSub; i++ {
		sg, err := db.NewSubobject(ff.Impl, "SubGates")
		if err != nil {
			return nil, err
		}
		if _, err := db.Bind(paperschema.RelAllOfGateInterface, sg, compIface); err != nil {
			return nil, err
		}
		if err := db.SetAttr(sg, "GateLocation",
			cadcam.NewRec("X", cadcam.Int(int64(i*5)), "Y", cadcam.Int(0))); err != nil {
			return nil, err
		}
		ff.SubGates = append(ff.SubGates, sg)
		sgPins, err := db.Members(sg, "Pins")
		if err != nil {
			return nil, err
		}
		// External in -> component in; component out -> external out.
		w1, err := db.RelateIn(ff.Impl, "Wires", cadcam.Participants{
			"Pin1": cadcam.RefOf(ownPins[i]),
			"Pin2": cadcam.RefOf(sgPins[0]),
		})
		if err != nil {
			return nil, err
		}
		w2, err := db.RelateIn(ff.Impl, "Wires", cadcam.Participants{
			"Pin1": cadcam.RefOf(sgPins[2]),
			"Pin2": cadcam.RefOf(ownPins[nSub+i]),
		})
		if err != nil {
			return nil, err
		}
		ff.Wires = append(ff.Wires, w1, w2)
	}
	return ff, nil
}

// ChainCatalog builds a schema with a depth-long abstraction hierarchy:
// L0 owns attribute X; for each level k >= 1, inher-rel-type Rk
// (transmitter L<k-1>, inheriting X) and obj-type Lk inheritor-in Rk. A
// bound chain of objects then resolves Lk.X through k hops — the workload
// for the hierarchy-depth experiment (E3).
func ChainCatalog(depth int) (*schema.Catalog, error) {
	c := schema.NewCatalog()
	if err := c.AddObjectType(&schema.ObjectType{
		Name:       "L0",
		Attributes: []schema.Attribute{{Name: "X", Domain: domain.Integer()}},
	}); err != nil {
		return nil, err
	}
	for k := 1; k <= depth; k++ {
		rel := fmt.Sprintf("R%d", k)
		if err := c.AddInherRelType(&schema.InherRelType{
			Name:        rel,
			Transmitter: fmt.Sprintf("L%d", k-1),
			Inheriting:  []string{"X"},
		}); err != nil {
			return nil, err
		}
		if err := c.AddObjectType(&schema.ObjectType{
			Name:        fmt.Sprintf("L%d", k),
			InheritorIn: []string{rel},
			Attributes:  []schema.Attribute{{Name: fmt.Sprintf("Own%d", k), Domain: domain.Integer()}},
		}); err != nil {
			return nil, err
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// BuildChain instantiates one object per level of a ChainCatalog schema
// and binds them into a value-inheritance chain. It returns the objects
// from root (L0, holding X) to leaf (L<depth>).
func BuildChain(db *cadcam.Database, depth int) ([]cadcam.Surrogate, error) {
	chain := make([]cadcam.Surrogate, 0, depth+1)
	root, err := db.NewObject("L0", "")
	if err != nil {
		return nil, err
	}
	if err := db.SetAttr(root, "X", cadcam.Int(42)); err != nil {
		return nil, err
	}
	chain = append(chain, root)
	for k := 1; k <= depth; k++ {
		obj, err := db.NewObject(fmt.Sprintf("L%d", k), "")
		if err != nil {
			return nil, err
		}
		if _, err := db.Bind(fmt.Sprintf("R%d", k), obj, chain[k-1]); err != nil {
			return nil, err
		}
		chain = append(chain, obj)
	}
	return chain, nil
}
