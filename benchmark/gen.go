package main

import (
	"fmt"
	"math/rand"
)

// opKind is one client-level operation. Most are one wire request; a
// snapshot read, a transaction, a rebind and a create are several.
type opKind uint8

const (
	opGet      opKind = iota // GetAttr of an implementation attribute
	opSnap                   // SnapOpen, SnapGet(impl, Width), SnapClose
	opQuery                  // Query over Impls on a Width range
	opSetOwn                 // SetAttr of an implementation's TimeBehavior
	opSetIface               // SetAttr of an interface's Length or Width
	opTxn                    // Begin, txnWrites x SetAttr on interfaces, Commit
	opRebind                 // Unbind an implementation, Bind it to another interface
	opCreate                 // NewObject in Impls, Bind, SetAttr TimeBehavior
	opGetFresh               // opGet on an implementation created in this run
	nOpKinds
)

const txnWrites = 4

// op is one generated operation together with what its reads must
// return. The executor learns nothing from the seed: it receives ops.
type op struct {
	kind  opKind
	attr  uint8
	impl  implRef
	chain int32 // interface written, or rebind/create target
	val   int64 // value written, or value the read must return
	// own is the target's TimeBehavior after the op, for the traced
	// run's idempotent write probe.
	own int64
	txn *[txnWrites]ifaceWrite
	q   *queryOp
}

type ifaceWrite struct {
	chain int32
	attr  uint8
	val   int64
}

// queryOp is a Width range query. want lists the session's own
// implementations it must return; the other session's rows are not
// checked, since their Width changes concurrently.
type queryOp struct {
	where string
	want  []implRef
}

func (o *op) writes() bool {
	switch o.kind {
	case opSetOwn, opSetIface, opTxn, opRebind, opCreate:
		return true
	}
	return false
}

// workload is a weighted mix of op kinds. rate is the number of ops per
// second, over both sessions, that the reference box (2 CPUs, fsync
// ~70us) completes at scale 1; a phase of s seconds runs s*rate ops. The
// count never depends on how fast the code under test is, so two commits
// do the same work and end in the same state.
type workload struct {
	name string
	mix  [nOpKinds]int
	rate float64
	zipf bool // reads skewed Zipf s=1.1 over implementations, else uniform
}

var workloads = []workload{
	{name: "browse", mix: mixOf(opGet, 90, opQuery, 6, opSnap, 2, opSetOwn, 2), rate: 3500, zipf: true},
	{name: "edit", mix: mixOf(opSetIface, 45, opTxn, 10, opGet, 40, opQuery, 5), rate: 11000},
	{name: "rebind", mix: mixOf(opRebind, 20, opGet, 75, opQuery, 5), rate: 18000},
	{name: "bulk", mix: mixOf(opCreate, 80, opGetFresh, 15, opQuery, 5), rate: 4000},
}

func mixOf(kv ...any) (mix [nOpKinds]int) {
	for i := 0; i < len(kv); i += 2 {
		mix[kv[i].(opKind)] = kv[i+1].(int)
	}
	return mix
}

func workloadNamed(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want browse, edit, rebind or bulk)", name)
}

// writeMix keeps only the write kinds of a mix: the epilogue's
// checkpoint slices and recovery tail use it.
func (w workload) writeMix() (mix [nOpKinds]int) {
	for k, n := range w.mix {
		if (&op{kind: opKind(k)}).writes() {
			mix[k] = n
		}
	}
	return mix
}

// gen produces one session's ops and keeps the model of the part of the
// corpus that session owns.
type gen struct {
	m       *model
	s       int
	rng     *rand.Rand
	chains  []int32     // chains this session owns
	impls   []implRef   // corpus implementations this session owns
	byWidth [][]int32   // own chains by current Width
	implsOf [][]implRef // chain -> own implementations bound to it
	zipf    *rand.Zipf
	rank    []implRef // impls in Zipf rank order
	skewed  bool      // opGet draws from zipf
}

func newGen(m *model, seed int64, w workload, s int) *gen {
	g := &gen{
		m:       m,
		s:       s,
		rng:     rand.New(rand.NewSource(seed*sessions + 1 + int64(s))),
		skewed:  w.zipf,
		byWidth: make([][]int32, widthValues),
		implsOf: make([][]implRef, m.chains),
	}
	for j := int32(s); int(j) < m.chains; j += sessions {
		g.chains = append(g.chains, j)
		g.byWidth[m.width[j]] = append(g.byWidth[m.width[j]], j)
	}
	for i := range m.bound {
		if b := m.bound[i]; chainOwner(b) == s {
			g.impls = append(g.impls, implRef(i))
			g.implsOf[b] = append(g.implsOf[b], implRef(i))
		}
	}
	g.rank = make([]implRef, len(g.impls))
	for i, p := range g.rng.Perm(len(g.impls)) {
		g.rank[i] = g.impls[p]
	}
	g.zipf = rand.NewZipf(g.rng, 1.1, 1, uint64(len(g.impls)-1))
	return g
}

// ops draws n ops from a mix, applying each write to the model.
func (g *gen) ops(mix [nOpKinds]int, n int) []op {
	total := 0
	for _, w := range mix {
		total += w
	}
	out := make([]op, n)
	for i := range out {
		r := g.rng.Intn(total)
		k := opKind(0)
		for ; r >= mix[k]; k++ {
			r -= mix[k]
		}
		out[i] = g.next(k)
	}
	return out
}

func (g *gen) next(k opKind) op {
	switch k {
	case opGet:
		r := g.uniformImpl()
		if g.skewed {
			r = g.rank[g.zipf.Uint64()]
		}
		a := attrLength + uint8(g.rng.Intn(2))
		return op{kind: opGet, impl: r, attr: a, val: g.inherited(r, a)}
	case opGetFresh:
		r := g.uniformImpl()
		if n := len(g.m.fresh[g.s]); n > 0 {
			r = freshRef(g.rng.Intn(n))
		}
		if g.rng.Intn(2) == 0 {
			return op{kind: opGet, impl: r, attr: attrTimeBehavior, val: g.m.timeBehOf(g.s, r)}
		}
		return op{kind: opGet, impl: r, attr: attrWidth, val: g.inherited(r, attrWidth)}
	case opSnap:
		r := g.rank[g.zipf.Uint64()]
		return op{kind: opSnap, impl: r, attr: attrWidth, val: g.inherited(r, attrWidth)}
	case opQuery:
		return op{kind: opQuery, q: g.query()}
	case opSetOwn:
		r := g.rank[g.zipf.Uint64()]
		v := g.rng.Int63n(maxTimeBeh)
		g.m.timeBeh[r] = v
		return op{kind: opSetOwn, impl: r, attr: attrTimeBehavior, val: v, own: v}
	case opSetIface:
		w := g.ifaceWrite(g.chains[g.rng.Intn(len(g.chains))])
		return op{kind: opSetIface, chain: w.chain, attr: w.attr, val: w.val}
	case opTxn:
		var t [txnWrites]ifaceWrite
		for i, p := range g.rng.Perm(len(g.chains))[:txnWrites] {
			t[i] = g.ifaceWrite(g.chains[p])
		}
		return op{kind: opTxn, txn: &t}
	case opRebind:
		r := g.uniformImpl()
		old := g.m.bound[r]
		to := old
		for to == old {
			to = g.chains[g.rng.Intn(len(g.chains))]
		}
		g.implsOf[old] = removeRef(g.implsOf[old], r)
		g.implsOf[to] = append(g.implsOf[to], r)
		g.m.bound[r] = to
		return op{kind: opRebind, impl: r, chain: to, own: g.m.timeBeh[r]}
	case opCreate:
		to := g.chains[g.rng.Intn(len(g.chains))]
		v := g.rng.Int63n(maxTimeBeh)
		r := freshRef(len(g.m.fresh[g.s]))
		g.m.fresh[g.s] = append(g.m.fresh[g.s], freshImpl{timeBeh: v, bound: to})
		g.implsOf[to] = append(g.implsOf[to], r)
		return op{kind: opCreate, impl: r, chain: to, val: v, own: v}
	}
	panic(fmt.Sprintf("gen: op kind %d", k))
}

func (g *gen) uniformImpl() implRef { return g.impls[g.rng.Intn(len(g.impls))] }

// inherited is the value an implementation inherits from its interface.
func (g *gen) inherited(r implRef, a uint8) int64 {
	b := g.m.boundOf(g.s, r)
	if a == attrLength {
		return g.m.length[b]
	}
	return g.m.width[b]
}

func (g *gen) ifaceWrite(j int32) ifaceWrite {
	if g.rng.Intn(2) == 0 {
		v := 1 + g.rng.Int63n(maxLength)
		g.m.length[j] = v
		return ifaceWrite{chain: j, attr: attrLength, val: v}
	}
	v := g.rng.Int63n(widthValues)
	old := g.m.width[j]
	g.byWidth[old] = removeChain(g.byWidth[old], j)
	g.byWidth[v] = append(g.byWidth[v], j)
	g.m.width[j] = v
	return ifaceWrite{chain: j, attr: attrWidth, val: v}
}

func (g *gen) query() *queryOp {
	w := g.rng.Intn(widthValues)
	q := &queryOp{where: fmt.Sprintf("Width = %d", w)}
	for _, j := range g.byWidth[w] {
		q.want = append(q.want, g.implsOf[j]...)
	}
	return q
}

func removeRef(s []implRef, r implRef) []implRef {
	for i, x := range s {
		if x == r {
			return append(s[:i], s[i+1:]...)
		}
	}
	panic("gen: implementation not bound where the model says")
}

func removeChain(s []int32, j int32) []int32 {
	for i, x := range s {
		if x == j {
			return append(s[:i], s[i+1:]...)
		}
	}
	panic("gen: chain not at the Width the model says")
}

// plan is everything one run executes, generated up front from the seed:
// per session, the phase ops, the checkpoint slices and the recovery
// tail. model is the state after all of them.
type plan struct {
	initial *model
	model   *model
	phase   [sessions][]op
	slices  [ckptRounds][sessions][]op
	tail    [sessions][]op
}

// Epilogue sizes at scale 1.
const (
	ckptRounds     = 5
	ckptSliceOps   = 1000
	recoveryRounds = 5
	tailOps        = 5000
	followerRounds = 3
)

func newPlan(cfg config, w workload) *plan {
	chains := max(2*txnWrites, int(float64(chainsAtScale1)*cfg.scale))
	p := &plan{initial: newModel(cfg.seed, chains)}
	p.model = p.initial.clone()
	perSession := func(n float64) int { return max(1, int(n*cfg.scale)/sessions) }
	nPhase := perSession(w.rate * float64(cfg.seconds))
	for s := 0; s < sessions; s++ {
		g := newGen(p.model, cfg.seed, w, s)
		p.phase[s] = g.ops(w.mix, nPhase)
		for r := range p.slices {
			p.slices[r][s] = g.ops(w.writeMix(), perSession(ckptSliceOps))
		}
		p.tail[s] = g.ops(w.writeMix(), perSession(tailOps))
	}
	return p
}
