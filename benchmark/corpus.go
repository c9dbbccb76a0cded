package main

import (
	"fmt"
	"math/rand"

	"cadcam"
	"cadcam/internal/paperschema"
)

// The corpus is the paper's interface hierarchy (§4.2) at scale. One
// chain is a GateInterface_I root owning its pins, a GateInterface bound
// to the root through AllOf_GateInterface_I, and implsPerIface
// GateImplementations bound to the interface through AllOf_GateInterface.
// With one binding object per inheritor a chain holds
// 1 + pinsPerRoot + 2 + 2*implsPerIface = 14 objects, so scale 1 is
// 70k objects.
const (
	chainsAtScale1 = 5_000
	pinsPerRoot    = 3
	implsPerIface  = 4
	sessions       = 2 // closed-loop clients; the reference box has 2 CPUs

	// Width is uniform over [0, widthValues) and a query asks for one
	// value, so it selects ~1/widthValues = 0.1% of the implementations.
	widthValues = 1000
	maxLength   = 100
	maxTimeBeh  = 1000

	implClass  = "Impls"
	widthIndex = "impls_width"
)

// Attribute names, indexed by op.attr.
const (
	attrLength uint8 = iota
	attrWidth
	attrTimeBehavior
)

var attrNames = [...]string{"Length", "Width", "TimeBehavior"}

// model is the expected state of the corpus. Chain j belongs to session
// j%sessions, and so do the implementations first bound to it; every
// write a session makes stays inside its own part (rebinds pick another
// chain of the same session), so each session knows the value of every
// read it issues. Implementations created during a run live in fresh,
// per session.
type model struct {
	chains, impls int
	length, width []int64 // per chain: the interface's attributes
	timeBeh       []int64 // per corpus implementation
	bound         []int32 // corpus implementation -> chain it inherits from
	fresh         [sessions][]freshImpl
}

type freshImpl struct {
	timeBeh int64
	bound   int32
}

// implRef names an implementation: a non-negative value is a corpus
// implementation index, a negative one the (-ref-1)th implementation its
// session created.
type implRef int32

func freshRef(k int) implRef { return implRef(-k - 1) }

func (r implRef) freshIndex() int { return int(-r - 1) }

// newModel draws the initial corpus state from the seed.
func newModel(seed int64, chains int) *model {
	rng := rand.New(rand.NewSource(seed))
	m := &model{
		chains:  chains,
		impls:   chains * implsPerIface,
		length:  make([]int64, chains),
		width:   make([]int64, chains),
		timeBeh: make([]int64, chains*implsPerIface),
		bound:   make([]int32, chains*implsPerIface),
	}
	for j := 0; j < chains; j++ {
		m.length[j] = 1 + rng.Int63n(maxLength)
		m.width[j] = rng.Int63n(widthValues)
	}
	for i := range m.timeBeh {
		m.timeBeh[i] = rng.Int63n(maxTimeBeh)
		m.bound[i] = int32(i / implsPerIface)
	}
	return m
}

func (m *model) clone() *model {
	c := *m
	c.length = append([]int64(nil), m.length...)
	c.width = append([]int64(nil), m.width...)
	c.timeBeh = append([]int64(nil), m.timeBeh...)
	c.bound = append([]int32(nil), m.bound...)
	for s := range c.fresh {
		c.fresh[s] = append([]freshImpl(nil), m.fresh[s]...)
	}
	return &c
}

func chainOwner(j int32) int { return int(j) % sessions }

func (m *model) boundOf(s int, r implRef) int32 {
	if r >= 0 {
		return m.bound[r]
	}
	return m.fresh[s][r.freshIndex()].bound
}

func (m *model) timeBehOf(s int, r implRef) int64 {
	if r >= 0 {
		return m.timeBeh[r]
	}
	return m.fresh[s][r.freshIndex()].timeBeh
}

// corpus holds the surrogates of the loaded corpus, by chain and by
// implementation index. Surrogates are allocated sequentially, so the
// same model loaded into two databases yields the same surrogates.
type corpus struct {
	roots, ifaces []cadcam.Surrogate
	impls         []cadcam.Surrogate
	implIdx       map[cadcam.Surrogate]int32
}

// owner reports which session owns a corpus implementation, or -1 if the
// surrogate is not one.
func (c *corpus) owner(sur cadcam.Surrogate) int {
	i, ok := c.implIdx[sur]
	if !ok {
		return -1
	}
	return chainOwner(int32(i / implsPerIface))
}

// load writes the model's initial state into db through the facade and
// indexes the inherited Width of class Impls.
func load(db *cadcam.Database, m *model) (*corpus, error) {
	c := &corpus{
		roots:   make([]cadcam.Surrogate, m.chains),
		ifaces:  make([]cadcam.Surrogate, m.chains),
		impls:   make([]cadcam.Surrogate, m.impls),
		implIdx: make(map[cadcam.Surrogate]int32, m.impls),
	}
	if err := db.DefineClass(implClass, paperschema.TypeGateImplementation); err != nil {
		return nil, err
	}
	for j := 0; j < m.chains; j++ {
		root, err := db.NewObject(paperschema.TypeGateInterfaceI, "")
		if err != nil {
			return nil, err
		}
		for p := 0; p < pinsPerRoot; p++ {
			pin, err := db.NewSubobject(root, "Pins")
			if err != nil {
				return nil, err
			}
			dir := "IN"
			if p == pinsPerRoot-1 {
				dir = "OUT"
			}
			if err := db.SetAttr(pin, "InOut", cadcam.Sym(dir)); err != nil {
				return nil, err
			}
			if err := db.SetAttr(pin, "PinId", cadcam.Int(int64(p+1))); err != nil {
				return nil, err
			}
		}
		iface, err := db.NewObject(paperschema.TypeGateInterface, "")
		if err != nil {
			return nil, err
		}
		if _, err := db.Bind(paperschema.RelAllOfGateInterfaceI, iface, root); err != nil {
			return nil, err
		}
		if err := db.SetAttr(iface, "Length", cadcam.Int(m.length[j])); err != nil {
			return nil, err
		}
		if err := db.SetAttr(iface, "Width", cadcam.Int(m.width[j])); err != nil {
			return nil, err
		}
		c.roots[j], c.ifaces[j] = root, iface
		for k := 0; k < implsPerIface; k++ {
			i := j*implsPerIface + k
			impl, err := db.NewObject(paperschema.TypeGateImplementation, implClass)
			if err != nil {
				return nil, err
			}
			if _, err := db.Bind(paperschema.RelAllOfGateInterface, impl, iface); err != nil {
				return nil, err
			}
			if err := db.SetAttr(impl, "TimeBehavior", cadcam.Int(m.timeBeh[i])); err != nil {
				return nil, err
			}
			c.impls[i] = impl
			c.implIdx[impl] = int32(i)
		}
	}
	if err := db.CreateIndex(widthIndex, implClass, "Width"); err != nil {
		return nil, err
	}
	return c, nil
}

// verify compares every modelled value with what db serves: interface
// attributes, each implementation's own TimeBehavior, its inherited Width
// and its transmitter. It returns the number of mismatches (lost or
// misapplied acknowledged writes) and the first one.
func verify(db *cadcam.Database, m *model, c *corpus, fresh [sessions][]cadcam.Surrogate) (int, string) {
	bad, first := 0, ""
	check := func(sur cadcam.Surrogate, attr string, want int64) {
		got, err := db.GetAttr(sur, attr)
		if err == nil && got.Equal(cadcam.Int(want)) {
			return
		}
		bad++
		if first == "" {
			first = fmt.Sprintf("%v.%s = %v (err %v), want %d", sur, attr, got, err, want)
		}
	}
	for j := 0; j < m.chains; j++ {
		check(c.ifaces[j], "Length", m.length[j])
		check(c.ifaces[j], "Width", m.width[j])
	}
	impl := func(s int, r implRef, sur cadcam.Surrogate) {
		b := m.boundOf(s, r)
		check(sur, "TimeBehavior", m.timeBehOf(s, r))
		check(sur, "Width", m.width[b])
		if got := db.TransmitterOf(sur, paperschema.RelAllOfGateInterface); got != c.ifaces[b] {
			bad++
			if first == "" {
				first = fmt.Sprintf("%v inherits from %v, want %v", sur, got, c.ifaces[b])
			}
		}
	}
	for i, sur := range c.impls {
		impl(chainOwner(m.bound[i]), implRef(i), sur)
	}
	for s := range fresh {
		for k, sur := range fresh[s] {
			if sur != 0 { // 0: the create failed and was counted then
				impl(s, freshRef(k), sur)
			}
		}
	}
	return bad, first
}
