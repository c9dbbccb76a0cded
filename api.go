package cadcam

import (
	"cadcam/internal/domain"
	"cadcam/internal/expr"
	"cadcam/internal/inherit"
	"cadcam/internal/object"
	"cadcam/internal/oplog"
	"cadcam/internal/query"
	"cadcam/internal/repl"
	"cadcam/internal/schema"
	"cadcam/internal/storage"
	"cadcam/internal/txn"
	"cadcam/internal/version"
)

// Re-exported core types, so applications program against package cadcam
// alone.
type (
	// Surrogate is the system-wide object identifier.
	Surrogate = domain.Surrogate
	// Value is an attribute value.
	Value = domain.Value
	// Ref references an object by surrogate.
	Ref = domain.Ref
	// Participants assigns relationship roles.
	Participants = object.Participants
	// Binding is an inheritance relationship instance.
	Binding = object.Binding
	// UpdateEvent reports a permeable transmitter change.
	UpdateEvent = object.UpdateEvent
	// ConstraintViolation reports a failed integrity constraint.
	ConstraintViolation = object.ConstraintViolation
	// Txn is a strict two-phase transaction.
	Txn = txn.Txn
	// Workspace is a long-transaction private workspace.
	Workspace = txn.Workspace
	// GenericRef is a version-unresolved component reference.
	GenericRef = version.GenericRef
	// Environment guides environment-based version selection.
	Environment = version.Environment
	// VersionInfo describes a registered version.
	VersionInfo = version.Info
	// Expansion is a materialized component tree.
	Expansion = inherit.Expansion
	// Portion is the visible part of a component.
	Portion = inherit.Portion
	// Adaptation is a pending inheritor adaptation.
	Adaptation = inherit.Adaptation
	// IndexDef describes a secondary attribute index.
	IndexDef = object.IndexDef
	// QueryPlan is a costed access path chosen by the query planner.
	QueryPlan = query.Plan
)

// Value constructors, re-exported from the domain layer.
var (
	// NullValue is the distinguished absent value.
	NullValue = domain.NullValue
)

// Int builds an integer value.
func Int(v int64) Value { return domain.Int(v) }

// Real builds a real value.
func Real(v float64) Value { return domain.Rl(v) }

// Str builds a string value.
func Str(v string) Value { return domain.Str(v) }

// Bool builds a boolean value.
func Bool(v bool) Value { return domain.Bool(v) }

// Sym builds an enumeration symbol.
func Sym(v string) Value { return domain.Sym(v) }

// IsNull reports whether v is nil or the null value.
func IsNull(v Value) bool { return domain.IsNull(v) }

// NewRec builds a record value from name/value pairs.
func NewRec(pairs ...any) Value { return domain.NewRec(pairs...) }

// NewList builds a list value.
func NewList(elems ...Value) Value { return domain.NewList(elems...) }

// NewSet builds a set value.
func NewSet(elems ...Value) Value { return domain.NewSet(elems...) }

// NewMatrix builds a rows×cols matrix value from row-major cells.
func NewMatrix(rows, cols int, cells ...Value) Value {
	return domain.NewMatrix(rows, cols, cells...)
}

// RefOf builds an object reference value.
func RefOf(sur Surrogate) Value { return domain.Ref(sur) }

// Version statuses and selection policies, re-exported.
const (
	StatusInWork   = version.StatusInWork
	StatusStable   = version.StatusStable
	StatusReleased = version.StatusReleased
	StatusFrozen   = version.StatusFrozen

	SelectDefault     = version.SelectDefault
	SelectQuery       = version.SelectQuery
	SelectEnvironment = version.SelectEnvironment
)

// Delete policies, re-exported.
const (
	DeleteRestrict = object.DeleteRestrict
	DeleteUnbind   = object.DeleteUnbind
)

// ---- component accessors ----

// Catalog returns the schema catalog.
func (db *Database) Catalog() *schema.Catalog { return db.cat }

// Store returns the object store. Mutations through it are journaled like
// facade mutations.
func (db *Database) Store() *object.Store { return db.store }

// Versions returns the version manager for read access; use the Database
// methods for durable version mutations.
func (db *Database) Versions() *version.Manager { return db.versions }

// Txns returns the transaction manager.
func (db *Database) Txns() *txn.Manager { return db.txns }

// Access returns the access-control manager.
func (db *Database) Access() *txn.AccessControl { return db.txns.Access() }

// Begin starts a strict two-phase transaction for a user ("" = anonymous
// full-rights user).
func (db *Database) Begin(user string) *Txn { return db.txns.Begin(user) }

// NewWorkspace opens a private design workspace (long transaction).
func (db *Database) NewWorkspace(user string) *Workspace { return db.txns.NewWorkspace(user) }

// ---- object operations (journaled via the store) ----
//
// Every mutating method follows the same protocol: fail fast if the
// journal pipeline is poisoned (durability is already lost — see Err),
// mutate the store (which enqueues the journal record under its own
// lock, fixing the replay order), then wait outside all locks for the
// group-commit batch carrying the record to reach disk.

// DefineClass creates a database-level class.
func (db *Database) DefineClass(name, elemType string) error {
	if err := db.Err(); err != nil {
		return err
	}
	return db.afterWrite(db.store.DefineClass(name, elemType))
}

// NewObject creates a top-level object, optionally in a class.
func (db *Database) NewObject(typeName, className string) (Surrogate, error) {
	if err := db.Err(); err != nil {
		return 0, err
	}
	sur, err := db.store.NewObject(typeName, className)
	return sur, db.afterWrite(err)
}

// NewSubobject creates a subobject in a local subclass.
func (db *Database) NewSubobject(parent Surrogate, subclass string) (Surrogate, error) {
	if err := db.Err(); err != nil {
		return 0, err
	}
	sur, err := db.store.NewSubobject(parent, subclass)
	return sur, db.afterWrite(err)
}

// NewRelSubobject creates a subobject of a relationship object.
func (db *Database) NewRelSubobject(rel Surrogate, subclass string) (Surrogate, error) {
	if err := db.Err(); err != nil {
		return 0, err
	}
	sur, err := db.store.NewRelSubobject(rel, subclass)
	return sur, db.afterWrite(err)
}

// SetAttr writes an attribute (write-protected if inherited or frozen).
func (db *Database) SetAttr(sur Surrogate, name string, v Value) error {
	if err := db.Err(); err != nil {
		return err
	}
	return db.afterWrite(db.store.SetAttr(sur, name, v))
}

// Relate creates a top-level relationship object.
func (db *Database) Relate(relType string, parts Participants) (Surrogate, error) {
	if err := db.Err(); err != nil {
		return 0, err
	}
	sur, err := db.store.Relate(relType, parts)
	return sur, db.afterWrite(err)
}

// RelateIn creates a relationship in a local relationship subclass,
// checking its where restriction.
func (db *Database) RelateIn(owner Surrogate, subrel string, parts Participants) (Surrogate, error) {
	if err := db.Err(); err != nil {
		return 0, err
	}
	sur, err := db.store.RelateIn(owner, subrel, parts)
	return sur, db.afterWrite(err)
}

// Participant reads a relationship role.
func (db *Database) Participant(rel Surrogate, role string) (Value, error) {
	return db.store.Participant(rel, role)
}

// Bind makes inheritor inherit (values of) the transmitter's permeable
// members under the named inheritance relationship type.
func (db *Database) Bind(relType string, inheritor, transmitter Surrogate) (Surrogate, error) {
	if err := db.Err(); err != nil {
		return 0, err
	}
	sur, err := db.store.Bind(relType, inheritor, transmitter)
	return sur, db.afterWrite(err)
}

// Unbind removes the inheritor's binding (type-level inheritance stays).
func (db *Database) Unbind(relType string, inheritor Surrogate) error {
	if err := db.Err(); err != nil {
		return err
	}
	return db.afterWrite(db.store.Unbind(relType, inheritor))
}

// Acknowledge marks the inheritor as adapted to the latest transmitter
// change.
func (db *Database) Acknowledge(relType string, inheritor Surrogate) error {
	if err := db.Err(); err != nil {
		return err
	}
	return db.afterWrite(db.store.Acknowledge(relType, inheritor))
}

// Delete removes an object with full cascade semantics.
func (db *Database) Delete(sur Surrogate) error {
	if err := db.Err(); err != nil {
		return err
	}
	return db.afterWrite(db.store.Delete(sur))
}

// CheckConstraints evaluates one object's local integrity constraints.
func (db *Database) CheckConstraints(sur Surrogate) ([]ConstraintViolation, error) {
	return db.store.CheckConstraints(sur)
}

// CheckAll evaluates every object's constraints.
func (db *Database) CheckAll() []ConstraintViolation { return db.store.CheckAll() }

// OnTransmitterUpdate registers an update hook (the paper's trigger
// mechanism hook).
func (db *Database) OnTransmitterUpdate(h object.UpdateHook) {
	db.store.OnTransmitterUpdate(h)
}

// BindingOf returns the inheritor's binding under a relationship type.
func (db *Database) BindingOf(inheritor Surrogate, relType string) (*Binding, bool) {
	return db.store.BindingOf(inheritor, relType)
}

// TransmitterOf resolves an inheritor's transmitter, or 0.
func (db *Database) TransmitterOf(inheritor Surrogate, relType string) Surrogate {
	return db.store.TransmitterOf(inheritor, relType)
}

// StoreStats reports the store's resolution-cache counters and structure
// epoch.
type StoreStats = object.StoreStats

// WALStats reports the group-commit journal pipeline's counters: batch
// size histogram, fsyncs, queued records and durability stall time. All
// zero for an in-memory database.
type WALStats = storage.GroupStats

// ReplStats reports the journal shipper's replication counters.
type ReplStats = repl.ShipperStats

// DBStats combines the store's resolution-cache counters with the WAL
// pipeline counters, the checkpoint/recovery counters, the replication
// shipper's counters, and the combined sticky-error health probe.
type DBStats struct {
	StoreStats
	WAL WALStats `json:"wal"`
	// Checkpoint counts incremental-checkpoint work since Open; Recovery
	// describes what the last Open replayed. Both zero in-memory.
	Checkpoint CheckpointStats `json:"checkpoint"`
	Recovery   RecoveryStats   `json:"recovery"`
	// Repl is nil until the database ships its journal to a follower.
	Repl *ReplStats `json:"repl,omitempty"`
	// Health folds every sticky error state — WAL pipeline, checkpoint,
	// replication — into one probe, so callers need not know which
	// subsystem to ask.
	Health HealthStats `json:"health"`
}

// Stats returns resolution-cache hit/miss/invalidation counters, the
// WAL group-commit counters, the
// checkpoint/recovery counters, replication counters (when shipping),
// and the sticky-error health probe.
func (db *Database) Stats() DBStats {
	st := DBStats{StoreStats: db.store.Stats()}
	if db.committer != nil {
		st.WAL = db.committer.Stats()
	}
	db.statMu.Lock()
	st.Checkpoint = db.ckptStats
	st.Recovery = db.recStats
	db.statMu.Unlock()
	db.replMu.Lock()
	if db.shipper != nil {
		rs := db.shipper.Stats()
		st.Repl = &rs
	}
	db.replMu.Unlock()
	st.Health = db.Health()
	return st
}

// ---- reads ----

// reader is the read surface Database and SnapshotView share. Every
// method reads through one object.View: the live store's for a Database,
// the pinned snapshot's for a SnapshotView, which sees the exact state at
// its pin while mutations proceed.
type reader struct{ v object.View }

// GetAttr reads an attribute with view-semantics inheritance resolution.
func (r reader) GetAttr(sur Surrogate, name string) (Value, error) { return r.v.GetAttr(sur, name) }

// Members lists a local subclass (following inheritance).
func (r reader) Members(sur Surrogate, name string) ([]Surrogate, error) {
	return r.v.Members(sur, name)
}

// Exists reports whether a surrogate denotes a visible object.
func (r reader) Exists(sur Surrogate) bool { return r.v.Exists(sur) }

// TypeOf returns an object's type name.
func (r reader) TypeOf(sur Surrogate) (string, error) { return r.v.TypeOf(sur) }

// Class lists a database-level class extent.
func (r reader) Class(name string) ([]Surrogate, error) { return r.v.Class(name) }

// Indexes lists the usable secondary-index definitions, sorted by name: at
// a pin, those maintained across it.
func (r reader) Indexes() []IndexDef { return r.v.Indexes() }

// Ancestors lists the abstraction hierarchy above an object.
func (r reader) Ancestors(sur Surrogate) []Surrogate { return inherit.Ancestors(r.v, sur) }

// Descendants lists every object inheriting (transitively) from sur.
func (r reader) Descendants(sur Surrogate) []Surrogate { return inherit.Descendants(r.v, sur) }

// PendingAdaptations reports bindings whose inheritors have not adapted
// to transmitter changes.
func (r reader) PendingAdaptations() []Adaptation { return inherit.PendingAdaptations(r.v) }

// Expand materializes the component tree of a composite object.
func (r reader) Expand(root Surrogate) (*Expansion, error) { return inherit.Expand(r.v, root) }

// VisibleComponents computes the component closure (the portions lock
// inheritance protects).
func (r reader) VisibleComponents(root Surrogate) ([]Portion, error) {
	return inherit.VisibleComponents(r.v, root)
}

// Query returns the members of a database-level class satisfying a
// constraint-language predicate, e.g. db.Query("plates", "Width > 4 and
// Material = \"steel\""). The planner uses a secondary index when one
// matches a sargable conjunct; results are sorted by surrogate. An empty
// predicate lists the whole extent. Rows on which the predicate cannot
// be evaluated do not match. On a SnapshotView the whole query —
// extents, attribute values and index probes — runs at the pin, so the
// result is what Database.Query returned there.
func (r reader) Query(className, where string) ([]Surrogate, error) {
	out, _, err := query.Run(r.v, className, where)
	return out, err
}

// Explain renders the access plan Query would choose, with estimates and
// rejected alternatives.
func (r reader) Explain(className, where string) (string, error) {
	p, err := query.Prepare(r.v, className, where)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}

// ---- snapshot reads ----

// SnapshotView is a pinned, read-only view of the database at one
// sequence point. Every method resolves against MVCC version chains,
// lock-free and without ever blocking writers: a long scan over a view
// observes the exact state at its pin while mutations proceed at full
// speed. Views are refcount-pinned — call Release when done so the
// version sweeper can reclaim the chain nodes retained for the pin.
type SnapshotView struct {
	reader
	snap *object.Snapshot
}

// SnapshotView pins the current sequence point and returns a consistent
// view of it. The pin itself briefly takes the store's shard read locks
// (the same order writers use), so it lands between operations.
func (db *Database) SnapshotView() *SnapshotView { return viewOf(db.store.Snapshot()) }

func viewOf(snap *object.Snapshot) *SnapshotView {
	return &SnapshotView{reader: reader{snap.View}, snap: snap}
}

// Seq returns the pinned sequence point.
func (v *SnapshotView) Seq() uint64 { return v.snap.Seq() }

// Release unpins the view. The view must not be used afterwards.
func (v *SnapshotView) Release() { v.snap.Release() }

// Snapshot exposes the underlying store snapshot (for store-level APIs).
func (v *SnapshotView) Snapshot() *object.Snapshot { return v.snap }

// ClassNames lists the database-level classes that existed at the pin.
func (v *SnapshotView) ClassNames() []string { return v.snap.ClassNames() }

// Surrogates lists every object visible at the pin, ascending.
func (v *SnapshotView) Surrogates() []Surrogate { return v.snap.Surrogates() }

// ---- queries ----

// Eval evaluates a constraint-language expression against one object,
// e.g. db.Eval(gate, "count(Pins) = 3"). An object that does not exist,
// or no longer does, is object.ErrNoSuchObject.
func (db *Database) Eval(sur Surrogate, src string) (Value, error) {
	e, err := expr.Parse(src)
	if err != nil {
		return nil, err
	}
	if _, err := db.store.Get(sur); err != nil {
		return nil, err
	}
	return expr.Compile(e).Eval(db.store.Env(sur))
}

// EvalClass evaluates an expression over the database-level classes,
// e.g. db.EvalClass("count(Gates) where Gates.Length > 4").
func (db *Database) EvalClass(src string) (Value, error) {
	e, err := expr.Parse(src)
	if err != nil {
		return nil, err
	}
	return expr.Compile(e).Eval(db.store.ClassEnv())
}

// ---- indexed queries ----

// CreateIndex builds a secondary index over one attribute of a class's
// members, maintained through every mutation path (attribute writes,
// inherited-value updates, bind/unbind, class churn, cascade deletes).
// The definition is journaled; the entries are rebuilt on recovery.
func (db *Database) CreateIndex(name, className, attrName string) error {
	if err := db.Err(); err != nil {
		return err
	}
	return db.afterWrite(db.store.CreateIndex(name, className, attrName))
}

// DropIndex removes a secondary index. Snapshot views pinned before the
// drop can still plan over it.
func (db *Database) DropIndex(name string) error {
	if err := db.Err(); err != nil {
		return err
	}
	return db.afterWrite(db.store.DropIndex(name))
}

// Plan builds (without running) the access plan Query would use.
func (db *Database) Plan(className, where string) (*QueryPlan, error) {
	return query.Prepare(db.store.View, className, where)
}

// ---- version operations (journaled under db.mu) ----
//
// Version ops enqueue their record under db.mu (their serialization
// lock) and wait for durability after releasing it, like facade store
// mutations do with the store lock.

// DefineDesign registers a design object, optionally anchored to an
// interface object.
func (db *Database) DefineDesign(name string, iface Surrogate) error {
	if err := db.Err(); err != nil {
		return err
	}
	db.mu.Lock()
	if _, err := db.versions.DefineDesign(name, iface); err != nil {
		db.mu.Unlock()
		return err
	}
	db.appendOp(&oplog.Op{Kind: oplog.KindDefineDesign, Name: name, Sur: iface})
	db.mu.Unlock()
	return db.afterWrite(nil)
}

// AddVersion registers obj as a version of a design.
func (db *Database) AddVersion(design string, obj Surrogate, derivedFrom []Surrogate, alternative string) (*VersionInfo, error) {
	if err := db.Err(); err != nil {
		return nil, err
	}
	db.mu.Lock()
	info, err := db.versions.AddVersion(design, obj, derivedFrom, alternative)
	if err != nil {
		db.mu.Unlock()
		return nil, err
	}
	db.appendOp(&oplog.Op{Kind: oplog.KindAddVersion, Name: design, Sur: obj, Surs: derivedFrom, Name2: alternative})
	db.mu.Unlock()
	return info, db.afterWrite(nil)
}

// SetStatus reclassifies a version; freezing makes the object read-only.
func (db *Database) SetStatus(obj Surrogate, st version.Status) error {
	if err := db.Err(); err != nil {
		return err
	}
	db.mu.Lock()
	if err := db.versions.SetStatus(obj, st); err != nil {
		db.mu.Unlock()
		return err
	}
	db.appendOp(&oplog.Op{Kind: oplog.KindSetStatus, Sur: obj, Name: string(st)})
	db.mu.Unlock()
	return db.afterWrite(nil)
}

// SetDefault selects a design's default version (bottom-up selection).
func (db *Database) SetDefault(design string, obj Surrogate) error {
	if err := db.Err(); err != nil {
		return err
	}
	db.mu.Lock()
	if err := db.versions.SetDefault(design, obj); err != nil {
		db.mu.Unlock()
		return err
	}
	db.appendOp(&oplog.Op{Kind: oplog.KindSetDefault, Name: design, Sur: obj})
	db.mu.Unlock()
	return db.afterWrite(nil)
}

// Resolve selects a concrete version for a generic reference.
func (db *Database) Resolve(ref GenericRef, env *Environment) (Surrogate, error) {
	return db.versions.Resolve(ref, env)
}

// BindResolved resolves a generic component reference and binds the
// inheritor to the chosen version.
func (db *Database) BindResolved(relType string, inheritor Surrogate, ref GenericRef, env *Environment) (Surrogate, Surrogate, error) {
	if err := db.Err(); err != nil {
		return 0, 0, err
	}
	chosen, bsur, err := db.versions.BindResolved(relType, inheritor, ref, env)
	return chosen, bsur, db.afterWrite(err)
}
