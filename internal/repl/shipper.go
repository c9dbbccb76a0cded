package repl

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cadcam/internal/fault"
	"cadcam/internal/wal"
)

// ShipperConfig tunes a primary-side shipper. Poll is the idle interval
// between chain scans when the follower is caught up (default 2ms);
// Clock is for tests.
type ShipperConfig struct {
	Poll  time.Duration
	Clock Clock
}

// ShipperStats counts one shipper's traffic across all follower
// sessions.
type ShipperStats struct {
	Conns          uint64 `json:"conns"`
	BatchesShipped uint64 `json:"batches_shipped"`
	RecordsShipped uint64 `json:"records_shipped"`
	Snapshots      uint64 `json:"snapshots"`
	Heartbeats     uint64 `json:"heartbeats"`
	SendErrors     uint64 `json:"send_errors"`
	LastError      string `json:"last_error,omitempty"`
}

// Shipper tails a database directory's journal chain and streams sealed
// batches to followers. It reads strictly through the chain's shared
// frame reader and never writes, so it is safe to run against a live
// primary appending to and checkpointing the same directory. One
// shipper serves any number of concurrent follower sessions.
type Shipper struct {
	dir   string
	poll  time.Duration
	clock Clock

	mu    sync.Mutex
	stats ShipperStats
	err   error // last session-fatal error (clean follower hang-ups excluded)
}

// NewShipper builds a shipper over a database directory.
func NewShipper(dir string, cfg ShipperConfig) *Shipper {
	if cfg.Poll <= 0 {
		cfg.Poll = 2 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	return &Shipper{dir: dir, poll: cfg.Poll, clock: cfg.Clock}
}

// Dir returns the directory the shipper tails.
func (s *Shipper) Dir() string { return s.dir }

// Stats returns a snapshot of the shipper's counters.
func (s *Shipper) Stats() ShipperStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Dial opens an in-process connection served by this shipper — the
// same-process transport. The returned Conn is the follower's end.
func (s *Shipper) Dial() (Conn, error) {
	client, server := Pipe()
	go s.Serve(server)
	return client, nil
}

// Dialer returns Dial as a Dialer for FollowerConfig.
func (s *Shipper) Dialer() Dialer { return s.Dial }

// Serve runs one follower session on conn until the connection closes
// or fails: handshake, optional checkpoint resync, then stream sealed
// batches as the chain grows, heartbeating when idle. Each heartbeat
// echoes the newest Sync probe received before its scan began. Blocks;
// run it in a goroutine per connection (Dial does).
func (s *Shipper) Serve(conn Conn) error {
	defer conn.Close()
	s.mu.Lock()
	s.stats.Conns++
	s.mu.Unlock()

	b, err := conn.Recv()
	if err != nil {
		if isClosed(err) {
			return nil
		}
		return s.fail("handshake", err)
	}
	hello, err := DecodeFrame(b)
	if err != nil || hello.Kind != KindHello {
		if err == nil {
			err = ErrFrame
		}
		return s.fail("handshake", err)
	}

	pos := wal.ChainPos{Epoch: hello.Epoch, Offset: hello.Offset}
	seq := hello.Seq // stream seq of the last record the follower applied
	resync := hello.Flags&FlagResync != 0
	if !resync && !s.validPos(pos) {
		resync = true
	}

	var token atomic.Uint64
	synced := make(chan struct{})
	go func() {
		defer close(synced)
		readSyncs(conn, &token)
	}()
	defer func() {
		conn.Close()
		<-synced
	}()

	for {
		// Evaluated once per chain scan, so a countdown can force the
		// resync path at any depth into the stream, not just at Hello.
		if err := fpResyncGap.Hit(); err != nil {
			resync = true
		}
		if resync {
			if err := s.sendResync(conn, &pos, &seq); err != nil {
				if errors.Is(err, wal.ErrChainGap) {
					continue // checkpoint raced a GC; reload and retry
				}
				if isClosed(err) {
					return nil
				}
				return s.fail("resync", err)
			}
			resync = false
		}
		// Read before the scan, so the heartbeat answering it proves the
		// scan started after the follower's probe was sent.
		tok := token.Load()
		frames, npos, err := wal.TailFrames(s.dir, pos)
		if errors.Is(err, wal.ErrChainGap) {
			resync = true
			continue
		}
		if err != nil {
			return s.fail("ship", err)
		}
		// Sealed as of this scan: lets the follower measure its lag
		// while still mid-catch-up.
		sealed := seq
		for _, fr := range frames {
			sealed += uint64(len(fr.Records))
		}
		for _, fr := range frames {
			recs := fr.Records
			n := uint64(len(recs))
			if a := fpSendPartial.Fire(); a != nil {
				// Ship only half the batch but advance the stream
				// sequence by the full count — the loss the CRC cannot
				// see, caught by the follower's seq-gap check.
				recs = recs[:len(recs)/2]
				if a.Kind == fault.KindExit {
					out := Frame{Kind: KindBatch, Epoch: fr.Epoch, Offset: fr.Offset,
						End: fr.End, Seq: seq + 1, Sealed: sealed, Records: recs}
					s.send(conn, &out)
					fault.Crash(*a)
				}
			}
			out := Frame{Kind: KindBatch, Epoch: fr.Epoch, Offset: fr.Offset,
				End: fr.End, Seq: seq + 1, Sealed: sealed, Records: recs}
			if err := s.send(conn, &out); err != nil {
				if isClosed(err) {
					return nil
				}
				return s.fail("ship", err)
			}
			seq += n
			s.mu.Lock()
			s.stats.BatchesShipped++
			s.stats.RecordsShipped += uint64(len(recs))
			s.mu.Unlock()
		}
		pos = npos
		if len(frames) == 0 {
			hb := Frame{Kind: KindHeartbeat, Epoch: tok, Seq: seq, Sealed: seq}
			if err := s.send(conn, &hb); err != nil {
				if isClosed(err) {
					return nil
				}
				return s.fail("ship", err)
			}
			s.mu.Lock()
			s.stats.Heartbeats++
			s.mu.Unlock()
			s.clock.Sleep(s.poll)
		}
	}
}

// readSyncs records the newest Sync token the follower sends until the
// connection closes; any other frame on the return path is ignored.
func readSyncs(conn Conn, token *atomic.Uint64) {
	for {
		b, err := conn.Recv()
		if err != nil {
			return
		}
		if fr, err := DecodeFrame(b); err == nil && fr.Kind == KindSync && fr.Epoch > token.Load() {
			token.Store(fr.Epoch)
		}
	}
}

// validPos reports whether the follower's resume position still exists
// in the chain; a vanished epoch or an offset beyond the file means the
// position was garbage-collected or the directory rebuilt.
func (s *Shipper) validPos(pos wal.ChainPos) bool {
	st, err := os.Stat(filepath.Join(s.dir, wal.WALFilename(pos.Epoch)))
	if err != nil {
		return pos.Epoch == 0 && pos.Offset == 0 // fresh primary, fresh follower
	}
	return st.Size() >= pos.Offset
}

// sendResync ships the newest checkpoint state (or a reset for a
// never-checkpointed primary) and rebases the session to replay the
// chain from that checkpoint's epoch with a fresh stream sequence. It
// reads only the checkpoint; the chain on top streams afterwards. A
// checkpoint that cannot be read fails the session (typically
// wal.ErrCheckpointUnreadable) rather than resetting the follower to an
// empty store.
func (s *Shipper) sendResync(conn Conn, pos *wal.ChainPos, seq *uint64) error {
	cp, err := wal.LoadCheckpoint(s.dir, 0)
	if err != nil {
		return err
	}
	var fr Frame
	if cp.Store == nil {
		fr = Frame{Kind: KindReset}
		*pos = wal.ChainPos{}
	} else {
		fr = Frame{Kind: KindSnapshot, Epoch: cp.Epoch, Blob: wal.EncodeSnapshot(cp.Store, cp.Versions)}
		*pos = wal.ChainPos{Epoch: cp.Epoch}
	}
	*seq = 0
	if err := s.send(conn, &fr); err != nil {
		return err
	}
	s.mu.Lock()
	s.stats.Snapshots++
	s.mu.Unlock()
	return nil
}

// send pushes one frame through the connection, with the torn-write and
// connection-drop failpoints on the edge.
func (s *Shipper) send(conn Conn, fr *Frame) error {
	if err := fpConnDrop.Hit(); err != nil {
		conn.Close()
		return err
	}
	b := fr.Encode()
	if a := fpSendTorn.Fire(); a != nil {
		conn.Send(b[:len(b)*2/3])
		if a.Kind == fault.KindExit {
			fault.Crash(*a)
		}
		if a.Err != nil {
			return a.Err
		}
		return errors.New("repl: torn send")
	}
	return conn.Send(b)
}

// fail records a session-fatal error in the stats and returns it typed.
func (s *Shipper) fail(op string, err error) error {
	e := &Error{Op: op, Err: err}
	s.mu.Lock()
	s.stats.SendErrors++
	s.stats.LastError = e.Error()
	s.err = e
	s.mu.Unlock()
	return e
}

// Err returns the most recent session-fatal shipping error (typed
// *Error), nil when every session has ended cleanly. A failed session
// does not stop the shipper — followers reconnect and recover — so this
// is a health signal, not a terminal state.
func (s *Shipper) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
