package storage

import (
	"errors"
	"math/bits"
	"runtime"
	"sync"
	"time"

	"cadcam/internal/fault"
)

// Failpoints of the group-commit pipeline. The leader points sit in the
// window where mutations are already applied (and acknowledged records
// enqueued) but the batch has not reached the log: a crash there loses
// the whole in-flight batch, which recovery must tolerate; an error
// there poisons the pipeline exactly like a write failure.
var (
	fpLeaderPre     = fault.New("group/leader-precommit")
	fpLeaderEncoded = fault.New("group/leader-encoded")
	fpStraggler     = fault.New("group/straggler-window")
)

// ErrCommitterClosed reports an operation on a closed Group.
var ErrCommitterClosed = errors.New("storage: committer closed")

// Encoder turns the records of a commit batch into journal payloads.
// Encoding is deferred to the committing goroutine, so mutations spend no
// CPU on serialization while holding database-level locks; records must
// be immutable once enqueued. An Encoder may carry state from batch to
// batch (the journal's name table), but only within one log: the Group
// resets it whenever it installs a log, so each log file decodes from
// its own start. Only the batch leader calls it, one batch at a time.
type Encoder[R any] interface {
	EncodeBatch(batch []R) [][]byte
	Reset()
}

// GroupConfig configures a Group committer.
type GroupConfig struct {
	// SyncCadence is the background fsync cadence for batches no mutation
	// is waiting on: n >= 1 fsyncs after at least n records since the
	// last sync; 0 never fsyncs on append (Flush/Close still sync). In
	// WaitSync mode every commit batch is fsynced regardless.
	SyncCadence int
	// WaitSync selects durable group-commit mode: CommitTail blocks until
	// the batch carrying the caller's records is written and fsynced.
	WaitSync bool
}

// GroupStats is a snapshot of the pipeline counters.
type GroupStats struct {
	// Enqueued/Written/Durable are record sequence high-water marks:
	// assigned, written to the OS, and fsynced.
	Enqueued uint64 `json:"enqueued"`
	Written  uint64 `json:"written"`
	Durable  uint64 `json:"durable"`
	// Queued is the number of records currently waiting for a batch.
	Queued int `json:"queued"`
	// Batches and Records count committed write batches and the records
	// they carried; Records/Batches is the mean coalescing factor.
	Batches uint64 `json:"batches"`
	Records uint64 `json:"records"`
	// Syncs counts fsyncs issued by the pipeline; Syncs < Records means
	// group commit amortized fsyncs across concurrent mutations.
	Syncs uint64 `json:"syncs"`
	// MaxBatch is the largest batch committed so far.
	MaxBatch int `json:"max_batch"`
	// BatchSizes is a power-of-two histogram of batch sizes:
	// 1, 2, 3-4, 5-8, 9-16, ..., 513+.
	BatchSizes [batchBuckets]uint64 `json:"batch_sizes"`
	// StallNs is the total time mutations spent blocked waiting for
	// durability (the group-commit wait, not the store lock).
	StallNs uint64 `json:"stall_ns"`
}

const batchBuckets = 11

// batchBucket maps a batch size to its histogram bucket.
func batchBucket(n int) int {
	b := bits.Len(uint(n - 1)) // 1→0, 2→1, 3-4→2, 5-8→3, ...
	if b >= batchBuckets {
		return batchBuckets - 1
	}
	return b
}

// Group is the group-commit pipeline over one Log, committing records of
// type R through an Encoder. Mutations enqueue encoded-later records
// (cheap, called under the store mutex to preserve the deterministic
// replay order) and then — in WaitSync mode — block in
// CommitTail until their records are on disk. Commit uses leader/follower
// batching: the first waiter becomes the leader, takes the whole queue,
// encodes it outside every lock, writes it as one frame and fsyncs once;
// followers that queued meanwhile are woken together, and one of them
// leads the next batch. A lone writer therefore commits inline with no
// goroutine handoff, while N concurrent writers share one fsync.
//
// A janitor goroutine drains records nobody waits for (async mode, and
// store-level mutations that bypass the facade's durability wait), so
// every record reaches the OS promptly even without waiters.
type Group[R any] struct {
	mu   sync.Mutex
	work *sync.Cond // janitor wakeup: queue grew, error, close
	done *sync.Cond // batch completion broadcast

	log   *Log
	enc   Encoder[R] // state belongs to log; reset with every new log
	cfg   GroupConfig
	queue []R

	enqueued  uint64 // last sequence assigned
	written   uint64 // last sequence written to the OS
	synced    uint64 // last sequence fsynced
	sinceSync int    // records written since the last fsync (cadence)

	leading   bool // a batch is in flight (its leader dropped the mutex)
	waiters   int
	lastBatch int // size of the last committed batch (straggler heuristic)
	closed    bool
	err       error // sticky: first I/O failure poisons the pipeline

	stopped chan struct{}

	batches  uint64
	records  uint64
	syncs    uint64
	maxBatch int
	sizeHist [batchBuckets]uint64
	stallNs  uint64
}

// NewGroup starts a committer over log, encoding batches with enc (reset
// first: the log is a new handle even when the file has content). The
// Group owns the log until Close (or until SwapLog hands ownership of a
// replacement).
func NewGroup[R any](log *Log, enc Encoder[R], cfg GroupConfig) *Group[R] {
	enc.Reset()
	g := &Group[R]{log: log, enc: enc, cfg: cfg, stopped: make(chan struct{})}
	g.work = sync.NewCond(&g.mu)
	g.done = sync.NewCond(&g.mu)
	go g.janitor()
	return g
}

// Enqueue assigns the next journal sequence number to rec and queues it
// for the next commit batch. Callers serialize Enqueue externally (the
// store mutex / the version lock), which fixes the replay order; the call
// itself does no encoding and no I/O. Records enqueued after a sticky
// error or Close are dropped (sequence 0): the store state no longer
// converges with the journal and mutations must observe Err.
func (g *Group[R]) Enqueue(rec R) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed || g.err != nil {
		return 0
	}
	g.queue = append(g.queue, rec)
	g.enqueued++
	g.work.Signal()
	return g.enqueued
}

// CommitTail makes everything enqueued so far durable before returning —
// in WaitSync mode by joining (or leading) a commit batch; in async mode
// it only surfaces the sticky error. This is the facade's per-mutation
// durability barrier.
func (g *Group[R]) CommitTail() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.cfg.WaitSync || g.synced >= g.enqueued {
		return g.err
	}
	start := time.Now()
	err := g.waitLocked(g.enqueued)
	g.stallNs += uint64(time.Since(start))
	return err
}

// Flush writes and fsyncs everything enqueued so far, in any mode. The
// checkpoint path uses it to drain the pipeline into the outgoing epoch's
// log before swapping.
func (g *Group[R]) Flush() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waitLocked(g.enqueued)
}

// waitLocked drives the pipeline until target is fsynced: while a batch
// is in flight it waits for the broadcast, otherwise the calling
// goroutine becomes the leader and commits the queue itself.
func (g *Group[R]) waitLocked(target uint64) error {
	g.waiters++
	for g.err == nil && g.synced < target {
		if g.leading {
			g.done.Wait()
		} else {
			g.commitBatchLocked(true)
		}
	}
	g.waiters--
	return g.err
}

// commitBatchLocked takes the whole queue, releases the mutex, encodes
// and writes the batch as one frame (fsyncing per sync), then reacquires
// the mutex, publishes the new high-water marks and wakes everyone.
// Callers must hold g.mu and ensure !g.leading.
func (g *Group[R]) commitBatchLocked(sync bool) {
	if len(g.queue) == 0 && (!sync || g.synced >= g.written) {
		return
	}
	g.leading = true
	// Straggler window: under concurrency, writers freed by the previous
	// batch are typically mid-mutation, microseconds from enqueueing.
	// Yield while the queue is still growing so they join this batch
	// instead of each leading a batch of one. Gated on evidence of
	// concurrency (a multi-record queue or previous batch) so a lone
	// writer's commit latency stays untouched.
	var inject error
	if len(g.queue) > 1 || g.lastBatch > 1 {
		// Abort (or crash) in the straggler window: the leader has claimed
		// the batch but stragglers are still joining.
		if inject = fpStraggler.Hit(); inject == nil {
			for prev := len(g.queue); ; prev = len(g.queue) {
				g.mu.Unlock()
				runtime.Gosched()
				g.mu.Lock()
				if len(g.queue) == prev {
					break
				}
			}
		}
	}
	batch := g.queue
	g.queue = nil
	end := g.enqueued
	log := g.log
	g.mu.Unlock()

	err := inject
	if err == nil {
		err = fpLeaderPre.Hit()
	}
	if err == nil {
		if len(batch) == 0 {
			err = log.Sync() // records already written, only the fsync owed
		} else {
			payloads := g.enc.EncodeBatch(batch)
			if err = fpLeaderEncoded.Hit(); err == nil {
				err = log.AppendBatch(payloads, sync)
			}
		}
	}

	g.mu.Lock()
	g.leading = false
	if err != nil {
		g.err = err
		g.queue = nil
	} else {
		g.written = end
		if len(batch) > 0 {
			g.lastBatch = len(batch)
			g.batches++
			g.records += uint64(len(batch))
			if len(batch) > g.maxBatch {
				g.maxBatch = len(batch)
			}
			g.sizeHist[batchBucket(len(batch))]++
		}
		if sync {
			g.synced = end
			g.sinceSync = 0
			g.syncs++
		} else {
			g.sinceSync += len(batch)
		}
	}
	g.done.Broadcast()
	g.work.Signal()
}

// janitorGrace is how long the janitor leaves a freshly enqueued record
// unclaimed before draining it itself. A facade mutation reaches
// CommitTail within microseconds of Enqueue, so the grace period is only
// ever paid by records nobody waits for.
const janitorGrace = 500 * time.Microsecond

// janitor drains batches no mutation is waiting for: all batches in
// async mode (fsyncing per the cadence), and — in WaitSync mode —
// records whose writers do not block (store-level mutations outside the
// facade). When waiters are present they lead their own batches and the
// janitor stands down.
func (g *Group[R]) janitor() {
	g.mu.Lock()
	var graced uint64 // enqueued mark already granted a grace period
	for {
		for !g.closed && g.err == nil &&
			(len(g.queue) == 0 || g.leading || (g.cfg.WaitSync && g.waiters > 0)) {
			g.work.Wait()
		}
		if g.closed || g.err != nil {
			break
		}
		if g.cfg.WaitSync && g.enqueued > graced {
			// In durable mode the writer that just enqueued is normally
			// about to arrive at CommitTail and lead (or join) a batch
			// itself; committing here would race it for the mutex and
			// fsync undersized batches. Grant each record one grace
			// period and drain only what remains unclaimed — store-level
			// mutations that bypass the facade's durability wait.
			graced = g.enqueued
			g.mu.Unlock()
			time.Sleep(janitorGrace)
			g.mu.Lock()
			continue
		}
		sync := g.cfg.WaitSync ||
			(g.cfg.SyncCadence > 0 && g.sinceSync+len(g.queue) >= g.cfg.SyncCadence)
		g.commitBatchLocked(sync)
	}
	g.mu.Unlock()
	close(g.stopped)
}

// SwapLog flushes the pipeline into the current log and installs next in
// its place with a reset encoder, returning the drained previous log
// (still open; the caller closes or removes it). The caller must exclude
// concurrent Enqueue — the checkpoint path holds the store exclusively.
func (g *Group[R]) SwapLog(next *Log) (*Log, error) {
	if err := g.Flush(); err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, ErrCommitterClosed
	}
	for g.leading {
		g.done.Wait() // the encoder is the leader's until its batch lands
	}
	old := g.log
	g.log = next
	g.enc.Reset()
	return old, nil
}

// Err returns the sticky pipeline error, if any. A non-nil result means
// records have been lost: durability is compromised and the database
// should be closed.
func (g *Group[R]) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// Fail poisons the pipeline with err (first error wins): queued records
// are dropped, waiters wake with the error, later Enqueues are rejected.
// Used by fault-injection tests; I/O errors arrive the same way
// internally.
func (g *Group[R]) Fail(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err == nil {
		g.err = err
	}
	g.queue = nil
	g.done.Broadcast()
	g.work.Broadcast()
}

// Stats snapshots the pipeline counters.
func (g *Group[R]) Stats() GroupStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return GroupStats{
		Enqueued:   g.enqueued,
		Written:    g.written,
		Durable:    g.synced,
		Queued:     len(g.queue),
		Batches:    g.batches,
		Records:    g.records,
		Syncs:      g.syncs,
		MaxBatch:   g.maxBatch,
		BatchSizes: g.sizeHist,
		StallNs:    g.stallNs,
	}
}

// Close drains and fsyncs the queue, stops the janitor and closes the
// log. The Group must not be used afterwards.
func (g *Group[R]) Close() error {
	g.mu.Lock()
	if g.closed {
		err := g.err
		g.mu.Unlock()
		return err
	}
	err := g.waitLocked(g.enqueued)
	g.closed = true
	g.work.Broadcast()
	g.done.Broadcast()
	log := g.log
	g.mu.Unlock()
	<-g.stopped
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	return err
}
