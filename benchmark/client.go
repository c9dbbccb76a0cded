package main

import (
	"fmt"
	"slices"
	"time"

	"cadcam"
	"cadcam/internal/paperschema"
	"cadcam/internal/serve"
)

// Request classes for latency samples. A write is an acknowledged
// mutating request: New, Set, Bind, Unbind and Commit, and Set inside a
// transaction. Begin, Abort, SnapOpen and SnapClose are other.
const (
	clsRead = iota
	clsWrite
	clsQuery
	clsOther
	nClasses
)

// sample is one acknowledged request: its latency and the whole second
// of the phase in which it completed.
type sample struct {
	sec int32
	d   time.Duration
}

// recorder is one session's tally; sessions never share one.
type recorder struct {
	start     time.Time
	lat       [nClasses][]sample
	attempted int
	failed    int
	writes    int // acknowledged mutations; see write
	bad       int // reads that returned something else than the model
	firstBad  string
	firstErr  error
	lockHW    int // lock-table waiters, sampled every lockSampleEvery ops
}

const lockSampleEvery = 64

func newRecorder(start time.Time, ops int) *recorder {
	r := &recorder{start: start}
	for c := range r.lat {
		r.lat[c] = make([]sample, 0, ops)
	}
	return r
}

// done records one request that started at t0.
func (r *recorder) done(cls int, t0 time.Time, err error) bool {
	now := time.Now()
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return false
	}
	r.lat[cls] = append(r.lat[cls], sample{sec: int32(now.Sub(r.start) / time.Second), d: now.Sub(t0)})
	return true
}

// write records one write request that started at t0 and, once it is
// acknowledged, the mutations it made durable: 1 for a Set, Bind,
// Unbind or New outside a transaction, 0 for a Set inside one, and the
// transaction's Set count for its Commit. So a transaction's mutations
// are counted once, when they become durable.
func (r *recorder) write(t0 time.Time, err error, mutations int) bool {
	if !r.done(clsWrite, t0, err) {
		return false
	}
	r.writes += mutations
	return true
}

func (r *recorder) mismatch(format string, args ...any) {
	r.bad++
	if r.firstBad == "" {
		r.firstBad = fmt.Sprintf(format, args...)
	}
}

// client is one closed-loop session: one request outstanding, no
// pipelining, the next op only after the previous reply.
type client struct {
	id  int
	c   *serve.Client
	db  *cadcam.Database
	cor *corpus
	// mirror is an in-memory copy of the corpus the traced run re-issues
	// writes to, so durable minus in-memory isolates the journal.
	mirror *cadcam.Database
	fresh  []cadcam.Surrogate // implementations this session created, in op order
	own    map[cadcam.Surrogate]bool
	rec    *recorder
	tr     *tracer // nil in the untraced run
	// corruptRead, when > 0, falsifies the value the corruptRead-th read
	// observes, so a test can prove the correctness gate catches it.
	corruptRead int
	reads       int
	seen        [nOpKinds]int // ops of each kind run so far, for trace sampling
}

func (c *client) implSur(r implRef) cadcam.Surrogate {
	if r >= 0 {
		return c.cor.impls[r]
	}
	if k := r.freshIndex(); k < len(c.fresh) {
		return c.fresh[k]
	}
	return 0
}

func (c *client) checkRead(o *op, got cadcam.Value) {
	c.reads++
	if c.reads == c.corruptRead {
		got = cadcam.Int(o.val + 1)
	}
	if got == nil || !got.Equal(cadcam.Int(o.val)) {
		c.rec.mismatch("session %d read %v.%s = %v, want %d", c.id, c.implSur(o.impl), attrNames[o.attr], got, o.val)
	}
}

// run executes ops over the wire.
func (c *client) run(ops []op) {
	for i := range ops {
		o := &ops[i]
		root := uint64(0)
		var t0 time.Time
		if c.tr != nil && c.seen[o.kind]%traceSampleEvery == 0 {
			root, t0 = c.tr.newID(), time.Now()
		}
		c.exec(o)
		if root != 0 {
			c.tr.add("bench.op", root, 0, root, t0, time.Now())
			c.reissue(o, root)
		}
		c.seen[o.kind]++
		if i%lockSampleEvery == 0 {
			c.rec.lockHW = max(c.rec.lockHW, c.db.Txns().LockTableStats().Queued)
		}
	}
}

func (c *client) exec(o *op) {
	r := c.rec
	switch o.kind {
	case opGet:
		t0 := time.Now()
		v, err := c.c.GetAttr(c.implSur(o.impl), attrNames[o.attr])
		if r.done(clsRead, t0, err) {
			c.checkRead(o, v)
		}
	case opSnap:
		t0 := time.Now()
		h, _, err := c.c.SnapOpen()
		if !r.done(clsOther, t0, err) {
			return
		}
		t0 = time.Now()
		v, err := c.c.SnapGet(h, c.implSur(o.impl), attrNames[o.attr])
		if r.done(clsRead, t0, err) {
			c.checkRead(o, v)
		}
		t0 = time.Now()
		r.done(clsOther, t0, c.c.SnapClose(h))
	case opQuery:
		t0 := time.Now()
		surs, err := c.c.Query(implClass, o.q.where)
		if r.done(clsQuery, t0, err) {
			c.checkQuery(o.q, surs)
		}
	case opSetOwn:
		t0 := time.Now()
		r.write(t0, c.c.SetAttr(c.implSur(o.impl), attrNames[o.attr], cadcam.Int(o.val)), 1)
	case opSetIface:
		t0 := time.Now()
		r.write(t0, c.c.SetAttr(c.cor.ifaces[o.chain], attrNames[o.attr], cadcam.Int(o.val)), 1)
	case opTxn:
		t0 := time.Now()
		_, err := c.c.Begin()
		if !r.done(clsOther, t0, err) {
			return
		}
		for _, w := range o.txn {
			t0 = time.Now()
			if !r.write(t0, c.c.SetAttr(c.cor.ifaces[w.chain], attrNames[w.attr], cadcam.Int(w.val)), 0) {
				t0 = time.Now()
				r.done(clsOther, t0, c.c.Abort())
				return
			}
		}
		t0 = time.Now()
		r.write(t0, c.c.Commit(), len(o.txn))
	case opRebind:
		sur := c.implSur(o.impl)
		t0 := time.Now()
		if !r.write(t0, c.c.Unbind(paperschema.RelAllOfGateInterface, sur), 1) {
			return
		}
		t0 = time.Now()
		_, err := c.c.Bind(paperschema.RelAllOfGateInterface, sur, c.cor.ifaces[o.chain])
		r.write(t0, err, 1)
	case opCreate:
		t0 := time.Now()
		sur, err := c.c.NewObject(paperschema.TypeGateImplementation, implClass)
		c.addFresh(sur, err)
		if !r.write(t0, err, 1) {
			return
		}
		t0 = time.Now()
		_, err = c.c.Bind(paperschema.RelAllOfGateInterface, sur, c.cor.ifaces[o.chain])
		if !r.write(t0, err, 1) {
			return
		}
		t0 = time.Now()
		r.write(t0, c.c.SetAttr(sur, "TimeBehavior", cadcam.Int(o.val)), 1)
	}
}

// addFresh keeps c.fresh aligned with the model's numbering: a failed
// create holds its slot with 0.
func (c *client) addFresh(sur cadcam.Surrogate, err error) {
	if err != nil {
		sur = 0
	}
	c.fresh = append(c.fresh, sur)
	if sur != 0 {
		c.own[sur] = true
	}
}

// checkQuery compares the session's own rows of a result with the model.
func (c *client) checkQuery(q *queryOp, got []cadcam.Surrogate) {
	var mine []cadcam.Surrogate
	for _, sur := range got {
		if c.cor.owner(sur) == c.id || c.own[sur] {
			mine = append(mine, sur)
		}
	}
	want := make([]cadcam.Surrogate, len(q.want))
	for i, r := range q.want {
		want[i] = c.implSur(r)
	}
	slices.Sort(want)
	if !slices.Equal(mine, want) {
		c.rec.mismatch("session %d query %q: own rows %v, want %v", c.id, q.where, mine, want)
	}
}

// apply executes a write op in-process through the facade; the epilogue
// uses it for the checkpoint slices and the recovery tail.
func (c *client) apply(db *cadcam.Database, o *op) error {
	switch o.kind {
	case opSetOwn:
		return db.SetAttr(c.implSur(o.impl), attrNames[o.attr], cadcam.Int(o.val))
	case opSetIface:
		return db.SetAttr(c.cor.ifaces[o.chain], attrNames[o.attr], cadcam.Int(o.val))
	case opTxn:
		t := db.Begin("")
		for _, w := range o.txn {
			if err := t.SetAttr(c.cor.ifaces[w.chain], attrNames[w.attr], cadcam.Int(w.val)); err != nil {
				_ = t.Abort() // the SetAttr error is the one to report
				return err
			}
		}
		return t.Commit()
	case opRebind:
		sur := c.implSur(o.impl)
		if err := db.Unbind(paperschema.RelAllOfGateInterface, sur); err != nil {
			return err
		}
		_, err := db.Bind(paperschema.RelAllOfGateInterface, sur, c.cor.ifaces[o.chain])
		return err
	case opCreate:
		sur, err := db.NewObject(paperschema.TypeGateImplementation, implClass)
		c.addFresh(sur, err)
		if err != nil {
			return err
		}
		if _, err := db.Bind(paperschema.RelAllOfGateInterface, sur, c.cor.ifaces[o.chain]); err != nil {
			return err
		}
		return db.SetAttr(sur, "TimeBehavior", cadcam.Int(o.val))
	}
	return fmt.Errorf("apply: op kind %d is not a write", o.kind)
}
