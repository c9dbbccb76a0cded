package repl

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cadcam/internal/fault"
	"cadcam/internal/object"
	"cadcam/internal/schema"
	"cadcam/internal/version"
	"cadcam/internal/wal"
)

// FollowerConfig configures a read replica.
type FollowerConfig struct {
	Catalog      *schema.Catalog
	Dial         Dialer
	Shards       int                 // store shards (0: store default)
	Workers      int                 // replay/import parallelism (0: GOMAXPROCS)
	DeletePolicy object.DeletePolicy // must match the primary's
	Backoff      BackoffConfig       // reconnect schedule
	Clock        Clock               // test clock; nil means real time

	// PauseAfter stops applying once the applied record count reaches
	// it (batch-granular) — the divergence oracle's truncation hook.
	PauseAfter uint64
	// OnBatch, when set, observes each applied batch's new count.
	OnBatch func(applied uint64)
}

// FollowerStats is a follower's health and traffic snapshot.
type FollowerStats struct {
	Connects      uint64 `json:"connects"`
	Applied       uint64 `json:"applied"`
	Sealed        uint64 `json:"sealed"`
	Lag           uint64 `json:"lag"`
	Batches       uint64 `json:"batches"`
	Dups          uint64 `json:"dups"`
	Overlaps      uint64 `json:"overlaps"`
	Gaps          uint64 `json:"gaps"`
	CorruptFrames uint64 `json:"corrupt_frames"`
	Resyncs       uint64 `json:"resyncs"`
	Retries       uint64 `json:"retries"`
	Epoch         uint64 `json:"epoch"`
	LastError     string `json:"last_error,omitempty"`
}

// errPaused stops the session loop once PauseAfter is reached.
var errPaused = errors.New("repl: follower paused")

// Follower replays a shipper's stream into a read-only store and serves
// MVCC snapshots at its applied sequence. It dials, handshakes with its
// resume position, applies batches idempotently (duplicates and
// overlaps skipped, gaps forcing a checkpoint resync), and reconnects
// under backoff on any failure. A follower never writes to the
// primary's directory.
type Follower struct {
	cfg     FollowerConfig
	clock   Clock
	workers int

	mu         sync.Mutex
	store      *object.Store
	vm         *version.Manager
	pos        wal.ChainPos
	applied    uint64 // stream seq of the last applied record
	sealed     uint64 // newest stream seq the shipper reported
	syncSent   uint64 // newest catch-up probe token WaitCaughtUp issued
	synced     uint64 // newest probe token a heartbeat answered
	needResync bool
	err        error // sticky; cleared by a successful resync
	stats      FollowerStats

	connMu sync.Mutex
	conn   Conn

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// NewFollower builds a follower with an empty store and starts its
// replication loop.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Dial == nil {
		return nil, errors.New("repl: follower needs a dialer")
	}
	store, err := object.NewStoreShards(cfg.Catalog, cfg.Shards)
	if err != nil {
		return nil, err
	}
	store.SetDeletePolicy(cfg.DeletePolicy)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	clock := cfg.Clock
	if clock == nil {
		clock = realClock{}
	}
	f := &Follower{
		cfg:     cfg,
		clock:   clock,
		workers: workers,
		store:   store,
		vm:      version.NewManager(store),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go f.run()
	return f, nil
}

// run is the reconnect loop: each session failure sleeps out the
// backoff schedule; exhausting the deadline parks the follower with a
// sticky error rather than spinning forever.
func (f *Follower) run() {
	defer close(f.done)
	bo := NewBackoff(f.cfg.Backoff, f.clock)
	for {
		if f.stopped() {
			return
		}
		err := f.session(bo)
		if err == nil || f.stopped() {
			return
		}
		f.mu.Lock()
		f.stats.Retries++
		f.stats.LastError = err.Error()
		f.mu.Unlock()
		d, berr := bo.Next()
		if berr != nil {
			f.mu.Lock()
			f.err = &Error{Op: "dial", Err: berr}
			f.stats.LastError = f.err.Error()
			f.mu.Unlock()
			return
		}
		f.clock.Sleep(d)
	}
}

// session runs one connection: dial, hello, then apply frames until the
// stream fails or the follower stops. The backoff resets after every
// successfully handled frame, so only consecutive failures escalate.
func (f *Follower) session(bo *Backoff) error {
	conn, err := f.cfg.Dial()
	if err != nil {
		return &Error{Op: "dial", Err: err}
	}
	defer conn.Close()

	// The hello and the newest pending probe go out under connMu, so a
	// probe WaitCaughtUp issues meanwhile follows the hello on this
	// connection or was already read into the one sent here.
	f.connMu.Lock()
	f.conn = conn
	f.mu.Lock()
	f.stats.Connects++
	hello := Frame{Kind: KindHello, Epoch: f.pos.Epoch, Offset: f.pos.Offset, Seq: f.applied}
	if f.needResync {
		hello.Flags |= FlagResync
	}
	probe := Frame{Kind: KindSync, Epoch: f.syncSent}
	f.mu.Unlock()
	err = conn.Send(hello.Encode())
	if err == nil && probe.Epoch > 0 {
		err = conn.Send(probe.Encode())
	}
	f.connMu.Unlock()
	if err != nil {
		return &Error{Op: "handshake", Err: err}
	}
	for {
		if f.stopped() {
			return nil
		}
		b, err := conn.Recv()
		if err != nil {
			if f.stopped() {
				return nil
			}
			return &Error{Op: "recv", Err: err}
		}
		fr, err := DecodeFrame(b)
		if err != nil {
			f.mu.Lock()
			f.stats.CorruptFrames++
			f.mu.Unlock()
			return &Error{Op: "decode", Err: err}
		}
		if err := f.handle(fr); err != nil {
			if errors.Is(err, errPaused) {
				<-f.stop
				return nil
			}
			return err
		}
		bo.Reset()
	}
}

func (f *Follower) handle(fr *Frame) error {
	switch fr.Kind {
	case KindBatch:
		return f.applyBatch(fr)
	case KindSnapshot, KindReset:
		return f.resync(fr)
	case KindHeartbeat:
		f.mu.Lock()
		defer f.mu.Unlock()
		if fr.Sealed > f.applied {
			// The shipper believes it sent records we never applied: a
			// loss the batch seq check could not catch because no later
			// batch followed. Resync.
			f.stats.Gaps++
			f.needResync = true
			f.err = &Error{Op: "apply", Err: ErrStreamGap}
			return f.err
		}
		f.sealed = fr.Sealed
		if fr.Epoch > f.synced {
			f.synced = fr.Epoch
		}
		return nil
	default:
		return &Error{Op: "decode", Err: fmt.Errorf("unexpected frame kind %d", fr.Kind)}
	}
}

// applyBatch replays one batch. Sequencing rules: a batch entirely at
// or below the applied seq is a duplicate (skipped); one overlapping it
// replays only the unseen suffix; one starting past applied+1 is a gap
// — records were lost, so the follower flags itself for resync rather
// than apply a diverged suffix.
func (f *Follower) applyBatch(fr *Frame) error {
	f.mu.Lock()
	applied, err := f.applyBatchLocked(fr)
	f.mu.Unlock()
	if err == nil && applied > 0 && f.cfg.OnBatch != nil {
		f.cfg.OnBatch(applied)
	}
	return err
}

// applyBatchLocked does the sequencing and replay under f.mu; it
// returns the new applied count when the batch advanced the replica.
func (f *Follower) applyBatchLocked(fr *Frame) (uint64, error) {
	if f.cfg.PauseAfter > 0 && f.applied >= f.cfg.PauseAfter {
		return 0, errPaused
	}
	n := uint64(len(fr.Records))
	expect := f.applied + 1
	switch {
	case fr.Seq > expect:
		f.stats.Gaps++
		f.needResync = true
		f.err = &Error{Op: "apply", Err: fmt.Errorf("%w: batch seq %d, expected %d", ErrStreamGap, fr.Seq, expect)}
		return 0, f.err
	case fr.Seq+n <= expect:
		f.stats.Dups++
		return 0, nil
	default:
		skip := expect - fr.Seq
		if skip > 0 {
			f.stats.Overlaps++
		}
		recs := fr.Records[skip:]
		if a := fpApplierCrash.Fire(); a != nil {
			// Apply half the batch, then die: the restarted (or
			// recovered) follower must resync and converge anyway.
			half := recs[:len(recs)/2]
			if err := wal.ReplayN(half, f.store, f.vm, 1); err == nil {
				f.applied += uint64(len(half))
			}
			if a.Kind == fault.KindExit {
				fault.Crash(*a)
			}
			f.needResync = true
			f.err = &Error{Op: "apply", Err: a.Err}
			return 0, f.err
		}
		if err := wal.ReplayN(recs, f.store, f.vm, f.workers); err != nil {
			f.err = &Error{Op: "apply", Err: err}
			return 0, f.err
		}
		f.applied = fr.Seq + n - 1
		f.pos = wal.ChainPos{Epoch: fr.Epoch, Offset: fr.End}
		if fr.Sealed > f.sealed {
			f.sealed = fr.Sealed
		}
		f.stats.Batches++
		f.stats.Applied = f.applied
		return f.applied, nil
	}
}

// resync replaces the store with the shipped checkpoint state (or an
// empty store for a reset) and rebases the stream. Snapshots already
// handed to readers stay pinned to the old store — they remain
// consistent, just stale.
func (f *Follower) resync(fr *Frame) error {
	store, err := object.NewStoreShards(f.cfg.Catalog, f.cfg.Shards)
	if err != nil {
		return &Error{Op: "resync", Err: err}
	}
	store.SetDeletePolicy(f.cfg.DeletePolicy)
	vm := version.NewManager(store)
	if fr.Kind == KindSnapshot {
		cp, err := wal.DecodeCheckpoint(fr.Blob)
		if err == nil && cp.Epoch != fr.Epoch {
			err = fmt.Errorf("repl: snapshot frame of epoch %d carries checkpoint epoch %d", fr.Epoch, cp.Epoch)
		}
		if err != nil {
			f.mu.Lock()
			f.stats.CorruptFrames++
			f.mu.Unlock()
			return &Error{Op: "resync", Err: err}
		}
		if _, err := wal.ImportCheckpoint(cp, store, vm, f.workers); err != nil {
			return &Error{Op: "resync", Err: err}
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.store, f.vm = store, vm
	f.pos = wal.ChainPos{Epoch: fr.Epoch}
	f.applied, f.sealed = 0, 0
	f.needResync = false
	f.err = nil // a fresh base state clears the sticky failure
	f.stats.Resyncs++
	f.stats.Applied = 0
	return nil
}

// View returns an MVCC snapshot of the replica regardless of lag, or
// the sticky error if replication is broken.
func (f *Follower) View() (*object.Snapshot, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return nil, f.err
	}
	return f.store.Snapshot(), nil
}

// ViewWithin returns a snapshot only when the replica is at most maxLag
// records behind the shipped stream; otherwise a LagError. Staleness is
// always explicit — a broken or lagging follower errors, it never
// silently serves old data as fresh.
func (f *Follower) ViewWithin(maxLag uint64) (*object.Snapshot, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return nil, f.err
	}
	var lag uint64
	if f.sealed > f.applied {
		lag = f.sealed - f.applied
	}
	if lag > maxLag {
		return nil, &LagError{Lag: lag, MaxLag: maxLag}
	}
	return f.store.Snapshot(), nil
}

// Export returns deep copies of the replica's state and its applied
// record count, batch-atomically — the divergence oracle's input.
func (f *Follower) Export() (*object.StoreState, *version.ManagerState, uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.store.Export(), f.vm.Export(), f.applied
}

// Applied returns the stream seq of the last applied record.
func (f *Follower) Applied() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied
}

// Err returns the sticky replication error, nil while healthy.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Stats returns the follower's counters.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.stats
	st.Applied = f.applied
	st.Sealed = f.sealed
	if f.sealed > f.applied {
		st.Lag = f.sealed - f.applied
	}
	st.Epoch = f.pos.Epoch
	if f.err != nil {
		st.LastError = f.err.Error()
	}
	return st
}

// WaitCaughtUp blocks until the follower has applied every record the
// primary had sealed when the call began, or the timeout expires. It
// sends the shipper a Sync probe with a fresh token and waits for a
// heartbeat echoing it. The shipper sends a heartbeat only after a
// chain scan that found nothing left to ship, and echoes only tokens it
// had received before that scan began, so neither a heartbeat nor a
// batch from an older scan can satisfy the wait.
func (f *Follower) WaitCaughtUp(timeout time.Duration) error {
	f.mu.Lock()
	f.syncSent++
	tok := f.syncSent
	f.mu.Unlock()
	f.sendSync(tok)
	deadline := f.clock.Now().Add(timeout)
	for {
		f.mu.Lock()
		ok := f.synced >= tok
		f.mu.Unlock()
		if ok {
			return nil
		}
		select {
		case <-f.done:
			// The loop parked (deadline exhausted or stopped): its
			// sticky error is terminal, no resync will clear it.
			if err := f.Err(); err != nil {
				return err
			}
			return errors.New("repl: follower stopped")
		default:
		}
		if f.clock.Now().After(deadline) {
			st := f.Stats()
			return fmt.Errorf("repl: not caught up after %v (applied %d, sealed %d, last error %q)",
				timeout, st.Applied, st.Sealed, st.LastError)
		}
		f.clock.Sleep(time.Millisecond)
	}
}

// sendSync sends a probe on the current connection. A failed send is
// left to the session loop: its reconnect resends the newest token.
func (f *Follower) sendSync(tok uint64) {
	f.connMu.Lock()
	defer f.connMu.Unlock()
	if f.conn != nil {
		f.conn.Send((&Frame{Kind: KindSync, Epoch: tok}).Encode())
	}
}

func (f *Follower) stopped() bool {
	select {
	case <-f.stop:
		return true
	default:
		return false
	}
}

// Close stops the replication loop and waits for it to exit.
func (f *Follower) Close() error {
	f.stopOnce.Do(func() { close(f.stop) })
	f.connMu.Lock()
	if f.conn != nil {
		f.conn.Close()
	}
	f.connMu.Unlock()
	<-f.done
	return nil
}
