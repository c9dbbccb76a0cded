package serve

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cadcam"
	"cadcam/internal/domain"
	"cadcam/internal/paperschema"
)

// TestServeLifecycleChurn is the session-lifecycle race battery: many
// goroutines churn connect → begin a transaction / pin a snapshot /
// leave work half-done → hard-disconnect, while the server keeps
// running. After the churn drains, nothing a dead session owned may
// survive it: zero MVCC pins, an empty lock table, zero sessions.
//
// Run under -race this doubles as the data-race battery for the whole
// reader/worker/teardown machinery.
func TestServeLifecycleChurn(t *testing.T) {
	db := testDB(t)
	iface, err := db.NewObject(paperschema.TypeGateInterface, "")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DB: db, PipelineDepth: 4})
	if err != nil {
		t.Fatal(err)
	}

	const churners = 256
	var wg sync.WaitGroup
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 8; i++ {
				c, err := DialConn(s.Pipe(), DialOptions{User: "churn"})
				if err != nil {
					continue // drain raced us; nothing leaked either way
				}
				// Mix of abandoned state: open txns with a held lock,
				// pinned snapshots, pipelined writes never waited for.
				switch rng.Intn(4) {
				case 0:
					c.Go(&Request{Kind: ReqBegin})
					c.Go(&Request{Kind: ReqSet, Sur: iface, Name: "Width", Value: domain.Int(int64(i))})
				case 1:
					c.Go(&Request{Kind: ReqSnapOpen})
					c.Go(&Request{Kind: ReqSnapOpen})
				case 2:
					c.Go(&Request{Kind: ReqBegin})
					c.Go(&Request{Kind: ReqSnapOpen})
					c.Go(&Request{Kind: ReqGet, Sur: iface, Name: "Width"})
				case 3:
					_, _ = c.Begin()
					_, _, _ = c.SnapOpen()
				}
				// Hard disconnect: no Abort, no SnapClose, no goodbye.
				c.Close()
			}
		}(g)
	}
	wg.Wait()

	if err := s.Shutdown(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	if st := s.Stats(); st.Sessions != 0 {
		t.Fatalf("sessions after drain = %d, want 0", st.Sessions)
	}
	if p := db.Stats().MVCC.Pins; p != 0 {
		t.Fatalf("MVCC pins after churn+drain = %d, want 0", p)
	}
	lt := db.Txns().LockTableStats()
	if lt.Objects != 0 || lt.Granted != 0 || lt.Queued != 0 || lt.Waiters != 0 {
		t.Fatalf("lock table after churn+drain: %+v", lt)
	}
	// The database must still be fully operational.
	if err := db.SetAttr(iface, "Width", cadcam.Int(1)); err != nil {
		t.Fatalf("db wedged after churn: %v", err)
	}
}

// TestServeSoak is the serve soak: N concurrent sessions over the pipe
// transport, plus a TCP segment of N/40 sessions through Dial, run mixed
// write/read/transaction/snapshot traffic, and every 50th session also
// queries a class of pins. It checks that no request fails or
// takes 30 s or more, that every session reads back each write it was
// acknowledged for and, at the end, its last acknowledged value, that the
// query returns exactly its matches, and that a drain leaves no session,
// pin or lock behind. CADCAM_SOAK_CONNS sets N (default 64, 16 under
// -short); CI runs it at 10,000 under -race.
func TestServeSoak(t *testing.T) {
	conns := 64
	if v := os.Getenv("CADCAM_SOAK_CONNS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("CADCAM_SOAK_CONNS: %v", err)
		}
		conns = n
	} else if testing.Short() {
		conns = 16
	}
	tcpConns := max(1, conns/40)
	const opsEach = 20
	db := testDB(t)
	if err := db.DefineClass("gates", paperschema.TypeGateInterface); err != nil {
		t.Fatal(err)
	}
	// 16 pins, half of them PinId 1: the sampled query's answer.
	if err := db.DefineClass("probe", paperschema.TypePin); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		pin, err := db.NewObject(paperschema.TypePin, "probe")
		if err != nil {
			t.Fatal(err)
		}
		if err := db.SetAttr(pin, "PinId", cadcam.Int(int64(i%2))); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{DB: db, MaxSessions: conns + tcpConns})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)

	var slowest atomic.Int64 // nanoseconds of the longest request
	timed := func(op func() error) error {
		t0 := time.Now()
		err := op()
		d := int64(time.Since(t0))
		for cur := slowest.Load(); d > cur && !slowest.CompareAndSwap(cur, d); cur = slowest.Load() {
		}
		return err
	}
	// session is one client's traffic; it returns the first failure.
	session := func(c *Client, id int) error {
		var sur cadcam.Surrogate
		if err := timed(func() (err error) {
			sur, err = c.NewObject(paperschema.TypeGateInterface, "gates")
			return err
		}); err != nil {
			return err
		}
		var lastAcked domain.Value
		for i := 0; i < opsEach; i++ {
			v := domain.Int(int64(id)*1000 + int64(i))
			if err := timed(func() error { return c.SetAttr(sur, "Width", v) }); err != nil {
				return err
			}
			lastAcked = v
			var got domain.Value
			if err := timed(func() (err error) {
				got, err = c.GetAttr(sur, "Width")
				return err
			}); err != nil {
				return err
			}
			if !v.Equal(got) {
				return fmt.Errorf("session %d: write of %v acknowledged, read back %v", id, v, got)
			}
			if i%5 == 0 {
				if err := timed(func() error {
					if _, err := c.Begin(); err != nil {
						return err
					}
					if err := c.SetAttr(sur, "Length", v); err != nil {
						return err
					}
					return c.Commit()
				}); err != nil {
					return err
				}
			}
			if i%7 == 0 {
				if err := timed(func() error {
					h, _, err := c.SnapOpen()
					if err != nil {
						return err
					}
					if _, err := c.SnapGet(h, sur, "Width"); err != nil {
						return err
					}
					return c.SnapClose(h)
				}); err != nil {
					return err
				}
			}
			if id%50 == 0 && i%10 == 5 {
				var hits []domain.Surrogate
				if err := timed(func() (err error) {
					hits, err = c.Query("probe", "PinId = 1")
					return err
				}); err != nil {
					return err
				}
				if len(hits) != 8 {
					return fmt.Errorf("session %d: query matched %d pins, want 8", id, len(hits))
				}
			}
		}
		// The last acknowledged write is the value served.
		got, err := c.GetAttr(sur, "Width")
		if err != nil {
			return err
		}
		if !lastAcked.Equal(got) {
			return fmt.Errorf("session %d: last acknowledged Width %v, served %v", id, lastAcked, got)
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, conns+tcpConns)
	for g := 0; g < conns+tcpConns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var c *Client
			var err error
			if g < conns {
				c, err = DialConn(s.Pipe(), DialOptions{User: "soak"})
			} else {
				c, err = Dial(l.Addr().String(), DialOptions{User: "soak-tcp"})
			}
			if err == nil {
				err = session(c, g)
				c.Close()
			}
			if err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if d := time.Duration(slowest.Load()); d >= 30*time.Second {
		t.Errorf("slowest request took %v, want < 30s", d)
	}

	if err := s.Shutdown(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := s.Stats().Sessions; n != 0 {
		t.Fatalf("sessions after drain = %d, want 0", n)
	}
	if p := db.Stats().MVCC.Pins; p != 0 {
		t.Fatalf("pins after soak = %d, want 0", p)
	}
	lt := db.Txns().LockTableStats()
	if lt.Objects != 0 || lt.Granted != 0 {
		t.Fatalf("lock table after soak: %+v", lt)
	}
}
