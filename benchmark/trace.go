package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cadcam"
	"cadcam/internal/paperschema"
)

// The traced run executes the same ops on a fresh copy of the corpus and,
// for one op of each kind in traceSampleEvery (the first of each kind
// included, so every layer has spans at any scale), re-issues the same
// key one layer at a time from outside: through serve.Client, the
// cadcam.Database facade and object.Store for reads and queries; through
// the durable database and an in-memory mirror of the corpus for writes.
// Each call is a span; a layer's self time is the difference between the
// medians of its span and of the span one layer down.
const traceSampleEvery = 64

// span is one timed call. Spans of one sampled op share Req, the id of
// the op's root span, which is every other span's Parent.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0   time.Time
	next atomic.Uint64

	mu         sync.Mutex
	spans      []span
	candidates int // query planner estimates, summed over sampled queries
	rows       int // rows those queries returned
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() uint64 { return t.next.Add(1) }

func (t *tracer) add(name string, id, parent, req uint64, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// call records f as a child span of the sampled op root.
func (t *tracer) call(name string, root uint64, f func() error) error {
	id, t0 := t.newID(), time.Now()
	err := f()
	t.add(name, id, root, root, t0, time.Now())
	return err
}

// reissue replays a sampled op layer by layer. The writes are idempotent
// (the value the op just wrote), except that a create is re-issued as a
// create outside class Impls, so query results stay as modelled.
func (c *client) reissue(o *op, root uint64) {
	tr, db, st := c.tr, c.db, c.db.Store()
	expect := func(v cadcam.Value, err error) error {
		if err == nil {
			c.checkRead(o, v)
		}
		return err
	}
	var errs []error
	note := func(err error) { errs = append(errs, err) }
	switch o.kind {
	case opGet, opSnap:
		sur, a := c.implSur(o.impl), attrNames[o.attr]
		note(tr.call("serve.GetAttr", root, func() error { return expect(c.c.GetAttr(sur, a)) }))
		note(tr.call("cadcam.GetAttr", root, func() error { return expect(db.GetAttr(sur, a)) }))
		note(tr.call("object.GetAttr", root, func() error { return expect(st.GetAttr(sur, a)) }))
	case opQuery:
		note(tr.call("serve.Query", root, func() error {
			_, err := c.c.Query(implClass, o.q.where)
			return err
		}))
		var rows int
		note(tr.call("cadcam.Query", root, func() error {
			surs, err := db.Query(implClass, o.q.where)
			rows = len(surs)
			return err
		}))
		note(tr.call("query.Plan", root, func() error {
			p, err := db.Plan(implClass, o.q.where)
			if err == nil {
				tr.mu.Lock()
				tr.candidates += p.EstCandidates
				tr.rows += rows
				tr.mu.Unlock()
			}
			return err
		}))
	default:
		note(tr.call("storage.durable", root, func() error { return c.rewrite(db, o) }))
		note(tr.call("storage.memory", root, func() error { return c.rewrite(c.mirror, o) }))
		sur, a, v := c.probeTarget(o)
		note(tr.call("cadcam.SetAttr", root, func() error { return db.SetAttr(sur, a, v) }))
		note(tr.call("txn.Commit", root, func() error {
			t := db.Begin("")
			if err := t.SetAttr(sur, a, v); err != nil {
				_ = t.Abort() // the SetAttr error is the one to report
				return err
			}
			return t.Commit()
		}))
	}
	for _, err := range errs {
		if err != nil {
			c.rec.mismatch("session %d trace re-issue: %v", c.id, err)
			return
		}
	}
}

// rewrite issues a write op's requests again through one database.
func (c *client) rewrite(db *cadcam.Database, o *op) error {
	rel := paperschema.RelAllOfGateInterface
	switch o.kind {
	case opTxn:
		for _, w := range o.txn {
			if err := db.SetAttr(c.cor.ifaces[w.chain], attrNames[w.attr], cadcam.Int(w.val)); err != nil {
				return err
			}
		}
		return nil
	case opCreate:
		sur, err := db.NewObject(paperschema.TypeGateImplementation, "")
		if err != nil {
			return err
		}
		if _, err := db.Bind(rel, sur, c.cor.ifaces[o.chain]); err != nil {
			return err
		}
		return db.SetAttr(sur, "TimeBehavior", cadcam.Int(o.val))
	case opRebind:
		sur := c.implSur(o.impl)
		if err := db.Unbind(rel, sur); err != nil {
			return err
		}
		_, err := db.Bind(rel, sur, c.cor.ifaces[o.chain])
		return err
	}
	return c.apply(db, o)
}

// probeTarget is the single attribute write a write op reduces to: the
// first interface write of a transaction, or the target implementation's
// own TimeBehavior rewritten with its current value.
func (c *client) probeTarget(o *op) (cadcam.Surrogate, string, cadcam.Value) {
	switch o.kind {
	case opSetIface:
		return c.cor.ifaces[o.chain], attrNames[o.attr], cadcam.Int(o.val)
	case opTxn:
		w := o.txn[0]
		return c.cor.ifaces[w.chain], attrNames[w.attr], cadcam.Int(w.val)
	}
	return c.implSur(o.impl), "TimeBehavior", cadcam.Int(o.own)
}

// recordRecovery adds the spans of one timed Open: the Open itself and,
// as its children, the checkpoint decode and the replay the database
// reports in its recovery counters, laid end to end from the Open's start.
func (t *tracer) recordRecovery(start, end time.Time, rs cadcam.RecoveryStats) {
	root := t.newID()
	t.add("wal.Open", root, 0, root, start, end)
	decodeEnd := start.Add(time.Duration(rs.DecodeNs))
	t.add("wal.decode", t.newID(), root, root, start, decodeEnd)
	t.add("wal.replay", t.newID(), root, root, decodeEnd, decodeEnd.Add(time.Duration(rs.ReplayNs)))
}

// leaf adds a root span with no children.
func (t *tracer) leaf(name string, start, end time.Time) {
	id := t.newID()
	t.add(name, id, 0, id, start, end)
}

// medianUs returns the median duration of the spans named name, in µs.
func (t *tracer) medianUs(name string) float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, float64(s.End-s.Start)/1e3)
		}
	}
	return median(ds)
}

// selfMedianUs is the median, over the spans named name, of each span's
// duration minus the durations of its child spans, in µs.
func (t *tracer) selfMedianUs(name string) float64 {
	children := map[uint64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, float64(s.End-s.Start-children[s.ID])/1e3)
		}
	}
	return median(ds)
}

// selfTime is one module's self time in the traced run.
type selfTime struct {
	module string
	us     float64
	how    string
}

// selfTimes derives each module's self time as a difference of medians.
func (t *tracer) selfTimes() []selfTime {
	m := t.medianUs
	return []selfTime{
		{"serve", m("serve.GetAttr") - m("cadcam.GetAttr"), "serve.GetAttr - cadcam.GetAttr"},
		{"object", m("object.GetAttr"), "object.GetAttr"},
		{"query", m("cadcam.Query"), fmt.Sprintf("cadcam.Query = plan %.2f + exec %.2f", m("query.Plan"), m("cadcam.Query")-m("query.Plan"))},
		{"txn", m("txn.Commit") - m("cadcam.SetAttr"), "txn.Commit (Begin..Commit) - cadcam.SetAttr"},
		{"storage", m("storage.durable") - m("storage.memory"), "storage.durable - storage.memory"},
		{"wal", t.selfMedianUs("wal.Open"), fmt.Sprintf("wal.Open - wal.decode - wal.replay, per span; wal.Checkpoint %.0f", m("wal.Checkpoint"))},
		{"repl", m("repl.CatchUp"), "repl.CatchUp (OpenFollower + WaitCaughtUp)"},
	}
}

// printSelfTimes writes the per-module summary a reader of the trace
// starts from.
func (t *tracer) printSelfTimes(w io.Writer) {
	names := map[string]int{}
	for _, s := range t.spans {
		names[s.Name]++
	}
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(w, "trace: span medians (us)")
	for _, k := range keys {
		fmt.Fprintf(w, "  %-16s n=%-6d %12.2f\n", k, names[k], t.medianUs(k))
	}
	fmt.Fprintln(w, "trace: self time per layer (us, differences of medians)")
	for _, s := range t.selfTimes() {
		fmt.Fprintf(w, "  %-8s %12.2f  = %s\n", s.module, s.us, s.how)
	}
}

// write saves the spans as JSON.
func (t *tracer) write(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans}
	if err := json.NewEncoder(f).Encode(&doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
