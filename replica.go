package cadcam

import (
	"errors"
	"time"

	"cadcam/internal/object"
	"cadcam/internal/repl"
	"cadcam/internal/schema"
)

// ---- read replicas ----
//
// A persistent database can ship its journal to any number of read
// replicas: a primary-side shipper tails the sealed group-commit
// batches (the same frames recovery replays, read strictly read-only)
// and streams them to follower stores that serve MVCC snapshot views at
// their applied sequence. Replication is crash-consistent by
// construction — a follower's state is always the primary's serial
// replay truncated at a batch boundary — and every transport fault is
// either retried (with capped exponential backoff) or healed by a
// resync from the primary's newest checkpoint. See internal/repl.

// ErrMaxLag identifies a bounded-staleness rejection from
// SnapshotViewWithin: the replica is further behind than the caller
// allows. The error is explicit — a lagging follower never silently
// serves stale data as fresh.
var ErrMaxLag = repl.ErrMaxLag

// FollowerOptions tunes a read replica.
type FollowerOptions struct {
	// Shards is the replica store's shard count (0: store default).
	Shards int
	// Workers bounds replay/import parallelism (0: GOMAXPROCS).
	Workers int
	// DeletePolicy must match the primary's delete policy; AttachFollower
	// fills it from the primary's options automatically.
	DeletePolicy object.DeletePolicy
	// Backoff shapes the reconnect schedule (zero: 5ms doubling to 1s,
	// retrying forever).
	Backoff repl.BackoffConfig
}

// Follower is a read replica: a store continuously replayed from a
// primary's journal stream, serving consistent snapshot views at its
// applied sequence. It never writes — all mutation methods live only on
// Database.
type Follower struct {
	f *repl.Follower
}

// Shipper returns the database's journal shipper, creating it on first
// use. Only persistent databases can ship. The shipper itself is
// passive; each follower connection runs its own session goroutine.
func (db *Database) Shipper() (*repl.Shipper, error) {
	if db.dir == "" {
		return nil, errors.New("cadcam: in-memory database has no journal to ship")
	}
	db.replMu.Lock()
	defer db.replMu.Unlock()
	if db.shipper == nil {
		db.shipper = repl.NewShipper(db.dir, repl.ShipperConfig{})
	}
	return db.shipper, nil
}

// AttachFollower starts a read replica fed by this database's shipper
// over an in-process connection. The replica inherits the primary's
// delete policy (and shard count, unless overridden) so replay
// semantics match exactly.
func (db *Database) AttachFollower(opts FollowerOptions) (*Follower, error) {
	s, err := db.Shipper()
	if err != nil {
		return nil, err
	}
	opts.DeletePolicy = db.opts.DeletePolicy
	if opts.Shards == 0 {
		opts.Shards = db.opts.Shards
	}
	return newFollower(db.cat, s.Dialer(), opts)
}

// OpenFollower starts a read replica of the database directory at
// primaryDir without opening the primary itself — the cross-process
// shape, where the primary runs elsewhere and this process only reads.
// The catalog and delete policy must match the primary's.
func OpenFollower(cat *schema.Catalog, primaryDir string, opts FollowerOptions) (*Follower, error) {
	s := repl.NewShipper(primaryDir, repl.ShipperConfig{})
	return newFollower(cat, s.Dialer(), opts)
}

func newFollower(cat *schema.Catalog, dial repl.Dialer, opts FollowerOptions) (*Follower, error) {
	f, err := repl.NewFollower(repl.FollowerConfig{
		Catalog:      cat,
		Dial:         dial,
		Shards:       opts.Shards,
		Workers:      opts.Workers,
		DeletePolicy: opts.DeletePolicy,
		Backoff:      opts.Backoff,
	})
	if err != nil {
		return nil, err
	}
	return &Follower{f: f}, nil
}

// SnapshotView pins a consistent view of the replica at its applied
// sequence, regardless of how far behind the primary it is. Errors only
// when replication is broken (sticky error pending resync or terminal).
func (f *Follower) SnapshotView() (*SnapshotView, error) {
	snap, err := f.f.View()
	if err != nil {
		return nil, err
	}
	return viewOf(snap), nil
}

// SnapshotViewWithin pins a view only if the replica is at most maxLag
// records behind the shipped stream; otherwise it returns a *LagError
// (errors.Is ErrMaxLag) naming the actual lag.
func (f *Follower) SnapshotViewWithin(maxLag uint64) (*SnapshotView, error) {
	snap, err := f.f.ViewWithin(maxLag)
	if err != nil {
		return nil, err
	}
	return viewOf(snap), nil
}

// Lag returns how many records the replica is behind the newest state
// the shipper has reported.
func (f *Follower) Lag() uint64 { return f.f.Stats().Lag }

// Stats returns the replica's replication counters.
func (f *Follower) Stats() repl.FollowerStats { return f.f.Stats() }

// Err returns the replica's sticky replication error: nil while
// healthy, a typed *repl.Error while broken (a pending resync clears
// it; an exhausted retry deadline does not).
func (f *Follower) Err() error { return f.f.Err() }

// WaitCaughtUp blocks until the replica has applied everything the
// shipper reports sealed, or the timeout expires.
func (f *Follower) WaitCaughtUp(timeout time.Duration) error { return f.f.WaitCaughtUp(timeout) }

// Repl exposes the underlying replication follower (for tools and the
// crash-matrix oracle).
func (f *Follower) Repl() *repl.Follower { return f.f }

// Close stops the replica's replication loop. Views already pinned
// remain valid until released.
func (f *Follower) Close() error { return f.f.Close() }

// ---- health ----

// HealthStats is the database's single health probe: every sticky error
// state surfaced in one place. OK is true iff all three are empty.
type HealthStats struct {
	OK bool `json:"ok"`
	// WALErr: the group-commit pipeline's sticky error. Fatal —
	// durability is compromised and mutations fail fast.
	WALErr string `json:"wal_err,omitempty"`
	// CheckpointErr: the last checkpoint failure (clears when a later
	// checkpoint succeeds). Degraded — journal compaction is stalled but
	// the database is consistent and durable.
	CheckpointErr string `json:"checkpoint_err,omitempty"`
	// ReplErr: the last session-fatal replication shipping error.
	// Degraded — followers reconnect and resync, but someone should know.
	ReplErr string `json:"repl_err,omitempty"`
}

// ReplErr reports the most recent session-fatal error of the database's
// shipper, nil when replication was never used or every session ended
// cleanly.
func (db *Database) ReplErr() error {
	db.replMu.Lock()
	s := db.shipper
	db.replMu.Unlock()
	if s == nil {
		return nil
	}
	return s.Err()
}

// Health returns the combined sticky error state — WAL, checkpoint and
// replication — as one probe.
func (db *Database) Health() HealthStats {
	h := HealthStats{OK: true}
	if err := db.Err(); err != nil {
		h.OK = false
		h.WALErr = err.Error()
	}
	if err := db.CheckpointErr(); err != nil {
		h.OK = false
		h.CheckpointErr = err.Error()
	}
	if err := db.ReplErr(); err != nil {
		h.OK = false
		h.ReplErr = err.Error()
	}
	return h
}
