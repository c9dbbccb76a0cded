package serve

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"cadcam"
	"cadcam/internal/domain"
	"cadcam/internal/paperschema"
)

// stallFeed is an injectable WAL-counter source for the admission meter:
// tests flip it between a healthy profile and a stalled one.
type stallFeed struct {
	stalled atomic.Bool
	tick    atomic.Uint64
}

func (f *stallFeed) stats() cadcam.WALStats {
	n := f.tick.Add(1)
	if f.stalled.Load() {
		// Queue far over bound and zero records committed since the
		// last sample: both busy signals at once.
		return cadcam.WALStats{Records: 1, Queued: 1 << 20, StallNs: n * uint64(time.Second)}
	}
	// Healthy: the queue drains and commits are cheap.
	return cadcam.WALStats{Records: n * 100, Queued: 0, StallNs: n * 1000}
}

func waitBusy(t *testing.T, s *Server, want bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Busy() != want {
		if time.Now().After(deadline) {
			t.Fatalf("meter never reached busy=%v", want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeBackpressure is the backpressure regression battery: an
// injected WAL stall must surface as a typed ErrServerBusy to new
// write-path requests, while requests already admitted to a session
// pipeline complete — in order — and read requests keep flowing. When
// the stall clears, writes are admitted again.
func TestServeBackpressure(t *testing.T) {
	db := testDB(t)
	feed := &stallFeed{}
	s := testServer(t, Config{
		DB:          db,
		WALStats:    feed.stats,
		StallWindow: 5 * time.Millisecond,
	})
	c := testClient(t, s, DialOptions{User: "bp"})

	iface, err := c.NewObject(paperschema.TypeGateInterface, "")
	if err != nil {
		t.Fatal(err)
	}

	// Pipeline a burst of writes, then flip the stall on while they are
	// still queued. Admission is decided when a request is read off the
	// transport, so everything below was admitted before the flip and
	// must complete in order despite the stall.
	const burst = 50
	calls := make([]*Call, burst)
	for i := range calls {
		calls[i] = c.Go(&Request{Kind: ReqSet, Sur: iface, Name: "Width", Value: domain.Int(int64(i))})
	}
	feed.stalled.Store(true)
	waitBusy(t, s, true)
	for i, call := range calls {
		if _, err := call.Wait(); err != nil {
			t.Fatalf("admitted pipelined write %d rejected: %v", i, err)
		}
	}
	if v, err := c.GetAttr(iface, "Width"); err != nil || !v.Equal(domain.Int(burst-1)) {
		t.Fatalf("pipelined writes applied out of order: %v, %v", v, err)
	}

	// New write-path requests are shed with the typed error...
	if err := c.SetAttr(iface, "Width", domain.Int(999)); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("write during stall: got %v, want ErrServerBusy", err)
	}
	if _, err := c.Begin(); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("begin during stall: got %v, want ErrServerBusy", err)
	}
	// ...while the read path stays open.
	if v, err := c.GetAttr(iface, "Width"); err != nil || !v.Equal(domain.Int(burst-1)) {
		t.Fatalf("read during stall: %v, %v", v, err)
	}
	if _, err := c.Query("gates", ""); err != nil {
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("query during stall: %v", err)
		}
	}
	if st := s.Stats(); st.BusyRejected < 2 || st.BusyTicks == 0 || !st.Busy {
		t.Fatalf("busy accounting: %+v", st)
	}

	// Stall clears → writes are admitted again.
	feed.stalled.Store(false)
	waitBusy(t, s, false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c.SetAttr(iface, "Width", domain.Int(1000)); err == nil {
			break
		} else if !errors.Is(err, ErrServerBusy) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("writes never readmitted after stall cleared")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeMeterWedgedQueue: the third busy signal — records stop
// committing while the queue is non-empty — needs two consecutive
// windows to trip, so a single slow sample does not flap the server
// into shedding.
func TestServeMeterWedgedQueue(t *testing.T) {
	var wedged atomic.Bool
	feed := func() cadcam.WALStats {
		if wedged.Load() {
			return cadcam.WALStats{Records: 7, Queued: 3} // small queue, frozen
		}
		return cadcam.WALStats{Records: 7, Queued: 0}
	}
	s := testServer(t, Config{DB: testDB(t), WALStats: feed, StallWindow: 5 * time.Millisecond})
	time.Sleep(30 * time.Millisecond)
	if s.Busy() {
		t.Fatal("healthy idle server reported busy")
	}
	wedged.Store(true)
	waitBusy(t, s, true)
	wedged.Store(false)
	waitBusy(t, s, false)
}

// TestServeMeterSlowFsyncNotBusy: a slow fsync with almost nothing queued
// is latency, not overload. The feed commits records at 50 ms of
// durability wait each while at most two are queued — two sessions with
// one request in flight each — and the server must keep admitting writes.
func TestServeMeterSlowFsyncNotBusy(t *testing.T) {
	var tick atomic.Uint64
	feed := func() cadcam.WALStats {
		n := tick.Add(1)
		records := 2 * n
		return cadcam.WALStats{
			Records: records,
			Queued:  int(n % 3),
			StallNs: records * uint64(50*time.Millisecond),
		}
	}
	s := testServer(t, Config{DB: testDB(t), WALStats: feed, StallWindow: 5 * time.Millisecond})
	c := testClient(t, s, DialOptions{User: "slow"})
	iface, err := c.NewObject(paperschema.TypeGateInterface, "")
	if err != nil {
		t.Fatal(err)
	}
	for start := tick.Load(); tick.Load() < start+20; {
		if s.Busy() {
			t.Fatalf("slow fsync with Queued <= 2 made the server busy: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.SetAttr(iface, "Width", domain.Int(7)); err != nil {
		t.Fatalf("write under slow fsync: %v", err)
	}
	if st := s.Stats(); st.BusyTicks != 0 || st.BusyRejected != 0 {
		t.Fatalf("busy accounting under slow fsync: %+v", st)
	}
}
