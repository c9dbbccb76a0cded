package serve

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cadcam"
	"cadcam/internal/fault"
	"cadcam/internal/repl"
)

// Serve failpoints, used by the crash matrix:
//
//	fpAckGap     — between a mutating operation becoming durable and the
//	               acknowledgment response being written. A kill here
//	               leaves the operation in the journal but unreported:
//	               the client never acked it, so the durable-ack
//	               multiset inclusion must still hold. The error kind
//	               turns a durable success into an error response — the
//	               legal "unknown outcome" the protocol documents.
//	fpDrainAbort — once per session transaction aborted by the drain
//	               path, before the abort executes. A kill here dies
//	               mid-drain with compensating records half-written;
//	               recovery must replay the surviving journal exactly.
var (
	fpAckGap     = fault.New("serve/ack-gap")
	fpDrainAbort = fault.New("serve/drain-abort")
)

// Config configures a Server. Exactly one of DB and Follower must be
// set: DB serves read-write sessions over a primary database, Follower
// serves read-only sessions over a WAL-shipped replica (the same
// transport and protocol; mutations are rejected with CodeReadOnly).
type Config struct {
	DB       *cadcam.Database
	Follower *cadcam.Follower

	// AuthToken, when non-empty, must be presented by every Hello.
	AuthToken string

	// MaxSessions caps concurrently established sessions; a session
	// past the cap gets CodeBusy on its first request and is closed.
	// 0 means the default (16384).
	MaxSessions int
	// PipelineDepth bounds the per-session queue of admitted-but-not-
	// yet-executed pipelined requests; beyond it the reader stops
	// pulling from the transport, which backpressures the client
	// through the connection. 0 means the default (64).
	PipelineDepth int
	// MaxSnapshots caps pinned snapshots per session (0: default 64) so
	// one client cannot pin unbounded MVCC history.
	MaxSnapshots int

	// Admission control. The meter samples the WAL group-commit
	// counters every StallWindow and declares the server busy when the
	// journal queue exceeds MaxQueuedWAL records, or when records are
	// queued but none committed for two windows running. While busy, new
	// write-path requests (New/Set/Bind/Unbind/Delete/Begin) are rejected
	// with CodeBusy; requests already admitted to a session pipeline, and
	// all read-path requests, still execute.
	StallWindow  time.Duration // 0: 100ms
	MaxQueuedWAL int           // 0: 4096 records

	// WALStats overrides where the admission meter reads the WAL
	// counters (default: DB.Stats().WAL). Tests inject synthetic stalls
	// through it.
	WALStats func() cadcam.WALStats

	// Logf, when set, receives one line per torn-down session that
	// ended on a transport or protocol error.
	Logf func(format string, args ...any)
}

func (c *Config) maxSessions() int {
	if c.MaxSessions <= 0 {
		return 16384
	}
	return c.MaxSessions
}

func (c *Config) pipelineDepth() int {
	if c.PipelineDepth <= 0 {
		return 64
	}
	return c.PipelineDepth
}

func (c *Config) maxSnapshots() int {
	if c.MaxSnapshots <= 0 {
		return 64
	}
	return c.MaxSnapshots
}

func (c *Config) stallWindow() time.Duration {
	if c.StallWindow <= 0 {
		return 100 * time.Millisecond
	}
	return c.StallWindow
}

func (c *Config) maxQueuedWAL() int {
	if c.MaxQueuedWAL <= 0 {
		return 4096
	}
	return c.MaxQueuedWAL
}

// ServerStats counts the server's lifetime activity. All fields are
// monotonic except Sessions, Busy and Draining, which describe the
// current state.
type ServerStats struct {
	Sessions      int    `json:"sessions"`       // established right now
	SessionsTotal uint64 `json:"sessions_total"` // lifetime accepts
	Requests      uint64 `json:"requests"`       // requests admitted to a pipeline
	Responses     uint64 `json:"responses"`      // responses written
	OpErrors      uint64 `json:"op_errors"`      // responses with an application error code
	BusyRejected  uint64 `json:"busy_rejected"`  // admission-control rejections
	DrainRejected uint64 `json:"drain_rejected"` // requests refused during drain
	ProtoErrors   uint64 `json:"proto_errors"`   // corrupt frames / protocol violations
	TxnsAborted   uint64 `json:"txns_aborted"`   // session txns aborted by teardown
	SnapsReleased uint64 `json:"snaps_released"` // pins released by teardown
	PipelineHW    int64  `json:"pipeline_hw"`    // high-water of any session's queue
	BusyTicks     uint64 `json:"busy_ticks"`     // meter ticks that declared busy
	Busy          bool   `json:"busy"`
	Draining      bool   `json:"draining"`
}

// Server owns the sessions over one backend. Create with New, feed it
// connections with Serve/ServeConn/Pipe, stop it with Shutdown.
type Server struct {
	cfg Config
	db  *cadcam.Database
	fol *cadcam.Follower

	mu        sync.Mutex
	sessions  map[*session]struct{}
	listeners map[net.Listener]struct{}
	wg        sync.WaitGroup

	drainCh   chan struct{}
	drainOnce sync.Once
	meterStop chan struct{}
	meterOnce sync.Once
	meterDone chan struct{}

	busy atomic.Bool

	sessionsTotal atomic.Uint64
	requests      atomic.Uint64
	responses     atomic.Uint64
	opErrors      atomic.Uint64
	busyRejected  atomic.Uint64
	drainRejected atomic.Uint64
	protoErrors   atomic.Uint64
	txnsAborted   atomic.Uint64
	snapsReleased atomic.Uint64
	pipelineHW    atomic.Int64
	busyTicks     atomic.Uint64
}

// New creates a server over a primary database or a follower and starts
// its admission meter.
func New(cfg Config) (*Server, error) {
	if (cfg.DB == nil) == (cfg.Follower == nil) {
		return nil, errors.New("serve: exactly one of Config.DB and Config.Follower must be set")
	}
	s := &Server{
		cfg:       cfg,
		db:        cfg.DB,
		fol:       cfg.Follower,
		sessions:  make(map[*session]struct{}),
		listeners: make(map[net.Listener]struct{}),
		drainCh:   make(chan struct{}),
		meterStop: make(chan struct{}),
		meterDone: make(chan struct{}),
	}
	go s.meter()
	return s, nil
}

// walStats reads the WAL counters the admission meter watches.
func (s *Server) walStats() cadcam.WALStats {
	if s.cfg.WALStats != nil {
		return s.cfg.WALStats()
	}
	if s.db != nil {
		return s.db.Stats().WAL
	}
	return cadcam.WALStats{}
}

// meter is the admission-control sampling loop: it watches the WAL
// group-commit counters and flips the busy bit when the journal is
// overloaded. The two signals cover the two overload shapes: a queue that
// outgrows its bound (records pile up faster than they drain) and a queue
// that stops draining (records wait, none commits). A slow fsync with
// little queued is latency, not overload: the few sessions waiting on it
// cannot push more work in, so it sheds nothing.
func (s *Server) meter() {
	defer close(s.meterDone)
	window := s.cfg.stallWindow()
	t := time.NewTicker(window)
	defer t.Stop()
	var last cadcam.WALStats
	stalledTicks := 0
	for {
		select {
		case <-s.meterStop:
			return
		case <-t.C:
			w := s.walStats()
			dRecords := w.Records - last.Records
			busy := w.Queued > s.cfg.maxQueuedWAL()
			// Queue present but nothing committed for two consecutive
			// windows: the pipeline is wedged even if the queue is small.
			if dRecords == 0 && w.Queued > 0 {
				stalledTicks++
				if stalledTicks >= 2 {
					busy = true
				}
			} else {
				stalledTicks = 0
			}
			if busy {
				s.busyTicks.Add(1)
			}
			s.busy.Store(busy)
			last = w
		}
	}
}

// Busy reports the admission meter's current verdict.
func (s *Server) Busy() bool { return s.busy.Load() }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// Serve accepts connections from l until the listener is closed (which
// Shutdown does) and runs a session per connection. It returns the
// accept error that ended the loop (nil after a clean shutdown).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.Draining() {
		s.mu.Unlock()
		l.Close()
		return ErrDraining
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.Draining() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.ServeConn(conn)
	}
}

// ServeConn runs a session over one byte-stream connection (a TCP
// conn, a unix socket, one end of net.Pipe). It returns immediately;
// the session runs on its own goroutines until the peer disconnects or
// the server drains.
func (s *Server) ServeConn(rw net.Conn) {
	s.StartConn(repl.StreamConn(rw))
}

// StartConn runs a session over an already-framed message connection.
// The drain check, session registration and wg.Add share one critical
// section with Shutdown's drain flip, so a session either starts before
// the drain (and is waited for) or not at all.
func (s *Server) StartConn(conn repl.Conn) {
	s.mu.Lock()
	if s.Draining() {
		s.mu.Unlock()
		conn.Close()
		return
	}
	over := len(s.sessions) >= s.cfg.maxSessions()
	sess := &session{
		srv:         s,
		conn:        conn,
		capRejected: over,
		snaps:       make(map[uint64]*cadcam.SnapshotView),
		done:        make(chan struct{}),
	}
	s.sessions[sess] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	s.sessionsTotal.Add(1)
	go func() {
		defer s.wg.Done()
		sess.run()
	}()
}

// Pipe creates an in-process connection served by this server and
// returns the client end — the no-file-descriptor transport tests and
// the 10k-connection soak use.
func (s *Server) Pipe() repl.Conn {
	a, b := repl.Pipe()
	s.StartConn(b)
	return a
}

func (s *Server) removeSession(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
}

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	return ServerStats{
		Sessions:      n,
		SessionsTotal: s.sessionsTotal.Load(),
		Requests:      s.requests.Load(),
		Responses:     s.responses.Load(),
		OpErrors:      s.opErrors.Load(),
		BusyRejected:  s.busyRejected.Load(),
		DrainRejected: s.drainRejected.Load(),
		ProtoErrors:   s.protoErrors.Load(),
		TxnsAborted:   s.txnsAborted.Load(),
		SnapsReleased: s.snapsReleased.Load(),
		PipelineHW:    s.pipelineHW.Load(),
		BusyTicks:     s.busyTicks.Load(),
		Busy:          s.busy.Load(),
		Draining:      s.Draining(),
	}
}

// Shutdown drains the server: stop accepting (close every listener),
// let every session finish the requests already admitted to its
// pipeline, abort idle session transactions, release pinned snapshots,
// and close the connections. Sessions still running when the timeout
// expires are force-closed (their teardown still aborts and releases).
// Shutdown is idempotent; concurrent calls share one drain.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	s.drainOnce.Do(func() { close(s.drainCh) })
	for l := range s.listeners {
		l.Close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var forced error
	select {
	case <-done:
	case <-time.After(timeout):
		// Force the stragglers: closing the connection unblocks their
		// readers, and teardown still aborts the txn and releases pins.
		s.mu.Lock()
		for sess := range s.sessions {
			sess.conn.Close()
		}
		s.mu.Unlock()
		select {
		case <-done:
		case <-time.After(timeout):
			forced = errors.New("serve: sessions did not drain in time")
		}
	}
	s.meterOnce.Do(func() { close(s.meterStop) })
	<-s.meterDone
	return forced
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
