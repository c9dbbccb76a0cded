package serve

import (
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"cadcam"
	"cadcam/internal/domain"
	"cadcam/internal/paperschema"
)

func testDB(t *testing.T) *cadcam.Database {
	t.Helper()
	db, err := cadcam.OpenMemory(paperschema.MustGates())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(5 * time.Second) })
	return s
}

func testClient(t *testing.T, s *Server, opts DialOptions) *Client {
	t.Helper()
	c, err := DialConn(s.Pipe(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestServeHelloAuth: the Hello gate — token and protocol version are
// checked, and nothing but Hello is served before it.
func TestServeHelloAuth(t *testing.T) {
	s := testServer(t, Config{DB: testDB(t), AuthToken: "sesame"})

	if _, err := DialConn(s.Pipe(), DialOptions{Token: "wrong"}); !errors.Is(err, ErrAuth) {
		t.Fatalf("bad token: got %v, want ErrAuth", err)
	}

	// Wrong protocol version, sent raw so the client helper cannot fix it.
	conn := s.Pipe()
	defer conn.Close()
	raw := (&Request{ID: 1, Kind: ReqHello, Snap: ProtocolVersion + 1, Name: "sesame"}).Encode()
	if err := conn.Send(raw); err != nil {
		t.Fatal(err)
	}
	b, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodeResponse(b)
	if err != nil || p.Code != CodeAuth {
		t.Fatalf("bad version: got code %d err %v, want CodeAuth", p.Code, err)
	}

	// A request before Hello is out of protocol.
	conn2 := s.Pipe()
	defer conn2.Close()
	if err := conn2.Send((&Request{ID: 1, Kind: ReqPing}).Encode()); err != nil {
		t.Fatal(err)
	}
	b, err = conn2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if p, err := DecodeResponse(b); err != nil || p.Code != CodeBadRequest {
		t.Fatalf("pre-Hello request: got code %d err %v, want CodeBadRequest", p.Code, err)
	}

	// The right token establishes a session.
	c := testClient(t, s, DialOptions{Token: "sesame", User: "alice"})
	if _, err := c.Ping(7); err != nil {
		t.Fatal(err)
	}
}

// TestServeCRUDQueryOverTCP: the full read/write surface over a real
// TCP listener and serve.Dial — create, set, get (with inheritance
// binding), query, explain, unbind, delete.
func TestServeCRUDQueryOverTCP(t *testing.T) {
	db := testDB(t)
	if err := db.DefineClass("gates", paperschema.TypeGateInterface); err != nil {
		t.Fatal(err)
	}
	s := testServer(t, Config{DB: db})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)

	c, err := Dial(l.Addr().String(), DialOptions{User: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	iface, err := c.NewObject(paperschema.TypeGateInterface, "gates")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetAttr(iface, "Width", domain.Int(3)); err != nil {
		t.Fatal(err)
	}
	if v, err := c.GetAttr(iface, "Width"); err != nil || !v.Equal(domain.Int(3)) {
		t.Fatalf("GetAttr = %v, %v; want 3", v, err)
	}

	rootI, err := c.NewObject(paperschema.TypeGateInterfaceI, "")
	if err != nil {
		t.Fatal(err)
	}
	bind, err := c.Bind(paperschema.RelAllOfGateInterfaceI, iface, rootI)
	if err != nil || bind == 0 {
		t.Fatalf("Bind = %v, %v", bind, err)
	}
	if err := c.Unbind(paperschema.RelAllOfGateInterfaceI, iface); err != nil {
		t.Fatal(err)
	}

	surs, err := c.Query("gates", "Width = 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(surs) != 1 || surs[0] != iface {
		t.Fatalf("Query = %v; want [%v]", surs, iface)
	}
	plan, err := c.Explain("gates", "Width = 3")
	if err != nil || plan == "" {
		t.Fatalf("Explain = %q, %v", plan, err)
	}

	if err := c.Delete(rootI); err != nil {
		t.Fatal(err)
	}
	// An application error surfaces as a RemoteError, not a dead session.
	var re *RemoteError
	if _, err := c.GetAttr(rootI, "Width"); !errors.As(err, &re) {
		t.Fatalf("read of deleted object: got %v, want RemoteError", err)
	}
	if _, err := c.Ping(1); err != nil {
		t.Fatalf("session should survive an application error: %v", err)
	}
}

// TestServeTxn: the session transaction — commit makes writes visible,
// abort rolls them back, and the transactional protocol states are
// enforced.
func TestServeTxn(t *testing.T) {
	db := testDB(t)
	s := testServer(t, Config{DB: db})
	c := testClient(t, s, DialOptions{User: "alice"})

	iface, err := c.NewObject(paperschema.TypeGateInterface, "")
	if err != nil {
		t.Fatal(err)
	}

	if err := c.Commit(); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("commit without begin: got %v, want ErrBadRequest", err)
	}

	if _, err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Begin(); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("double begin: got %v, want ErrBadRequest", err)
	}
	if err := c.SetAttr(iface, "Width", domain.Int(9)); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, err := db.GetAttr(iface, "Width"); err != nil || !v.Equal(cadcam.Int(9)) {
		t.Fatalf("after commit: %v, %v; want 9", v, err)
	}

	if _, err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.SetAttr(iface, "Width", domain.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	if v, err := db.GetAttr(iface, "Width"); err != nil || !v.Equal(cadcam.Int(9)) {
		t.Fatalf("after abort: %v, %v; want 9 still", v, err)
	}
	if st := db.Txns().LockTableStats(); st.Objects != 0 || st.Granted != 0 || st.Queued != 0 || st.Waiters != 0 {
		t.Fatalf("lock table not empty after commit+abort: %+v", st)
	}
}

// TestServeSnapshots: a pinned snapshot is a frozen view — later writes
// are invisible through the handle, and closing it releases the pin.
func TestServeSnapshots(t *testing.T) {
	db := testDB(t)
	s := testServer(t, Config{DB: db})
	c := testClient(t, s, DialOptions{})

	iface, err := c.NewObject(paperschema.TypeGateInterface, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetAttr(iface, "Width", domain.Int(1)); err != nil {
		t.Fatal(err)
	}
	h, _, err := c.SnapOpen()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetAttr(iface, "Width", domain.Int(2)); err != nil {
		t.Fatal(err)
	}
	if v, err := c.SnapGet(h, iface, "Width"); err != nil || !v.Equal(domain.Int(1)) {
		t.Fatalf("snapshot read = %v, %v; want frozen 1", v, err)
	}
	if v, err := c.GetAttr(iface, "Width"); err != nil || !v.Equal(domain.Int(2)) {
		t.Fatalf("live read = %v, %v; want 2", v, err)
	}
	if err := c.SnapClose(h); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SnapGet(h, iface, "Width"); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("closed handle: got %v, want ErrBadRequest", err)
	}
	if _, err := c.SnapGet(99, iface, "Width"); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown handle: got %v, want ErrBadRequest", err)
	}
	if p := db.Stats().MVCC.Pins; p != 0 {
		t.Fatalf("pins after SnapClose = %d, want 0", p)
	}
}

// TestServeSnapshotCap: MaxSnapshots bounds pinned history per session.
func TestServeSnapshotCap(t *testing.T) {
	db := testDB(t)
	s := testServer(t, Config{DB: db, MaxSnapshots: 2})
	c := testClient(t, s, DialOptions{})
	if _, _, err := c.SnapOpen(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.SnapOpen(); err != nil {
		t.Fatal(err)
	}
	var re *RemoteError
	if _, _, err := c.SnapOpen(); !errors.As(err, &re) {
		t.Fatalf("third SnapOpen: got %v, want RemoteError(limit)", err)
	}
}

// TestServePipelining: many requests issued without waiting complete in
// request order. The client cross-checks every echoed correlation id
// against its FIFO, so a single out-of-order response fails the test.
func TestServePipelining(t *testing.T) {
	db := testDB(t)
	s := testServer(t, Config{DB: db, PipelineDepth: 8})
	c := testClient(t, s, DialOptions{})

	iface, err := c.NewObject(paperschema.TypeGateInterface, "")
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	calls := make([]*Call, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			calls[i] = c.Go(&Request{Kind: ReqSet, Sur: iface, Name: "Width", Value: domain.Int(int64(i))})
		} else {
			calls[i] = c.Go(&Request{Kind: ReqGet, Sur: iface, Name: "Width"})
		}
	}
	for i, call := range calls {
		p, err := call.Wait()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if i%2 == 1 {
			// The read pipelined directly behind Set(i-1) must see it.
			if !p.Value.Equal(domain.Int(int64(i - 1))) {
				t.Fatalf("call %d read %v, want %d (ordered execution)", i, p.Value, i-1)
			}
		}
	}
	if hw := s.Stats().PipelineHW; hw < 2 {
		t.Fatalf("pipeline high-water %d; the battery never actually pipelined", hw)
	}
}

// TestServeFollowerReadOnly: a follower-backed server serves reads over
// the same protocol and rejects every mutation with ErrReadOnly.
func TestServeFollowerReadOnly(t *testing.T) {
	dir := t.TempDir()
	db, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.DefineClass("gates", paperschema.TypeGateInterface); err != nil {
		t.Fatal(err)
	}
	iface, err := db.NewObject(paperschema.TypeGateInterface, "gates")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetAttr(iface, "Width", cadcam.Int(5)); err != nil {
		t.Fatal(err)
	}

	fol, err := db.AttachFollower(cadcam.FollowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	if err := fol.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	s := testServer(t, Config{Follower: fol})
	c := testClient(t, s, DialOptions{})

	if v, err := c.GetAttr(iface, "Width"); err != nil || !v.Equal(domain.Int(5)) {
		t.Fatalf("follower read = %v, %v; want 5", v, err)
	}
	if surs, err := c.Query("gates", "Width = 5"); err != nil || len(surs) != 1 {
		t.Fatalf("follower query = %v, %v", surs, err)
	}
	h, _, err := c.SnapOpen()
	if err != nil {
		t.Fatal(err)
	}
	if v, err := c.SnapGet(h, iface, "Width"); err != nil || !v.Equal(domain.Int(5)) {
		t.Fatalf("follower snapshot read = %v, %v", v, err)
	}
	if err := c.SnapClose(h); err != nil {
		t.Fatal(err)
	}

	if err := c.SetAttr(iface, "Width", domain.Int(6)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower SetAttr: got %v, want ErrReadOnly", err)
	}
	if _, err := c.Begin(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower Begin: got %v, want ErrReadOnly", err)
	}
}

// TestServeReadOnlyFlag: a client-requested read-only session over a
// primary rejects writes the same way.
func TestServeReadOnlyFlag(t *testing.T) {
	s := testServer(t, Config{DB: testDB(t)})
	c := testClient(t, s, DialOptions{ReadOnly: true})
	if _, err := c.NewObject(paperschema.TypeGateInterface, ""); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("got %v, want ErrReadOnly", err)
	}
	if _, err := c.Ping(1); err != nil {
		t.Fatal(err)
	}
}

// TestServeSessionCap: past MaxSessions a connection is answered
// ErrServerBusy on its first request and closed.
func TestServeSessionCap(t *testing.T) {
	s := testServer(t, Config{DB: testDB(t), MaxSessions: 1})
	c := testClient(t, s, DialOptions{})
	if _, err := c.Ping(1); err != nil {
		t.Fatal(err)
	}
	if _, err := DialConn(s.Pipe(), DialOptions{}); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("over-cap dial: got %v, want ErrServerBusy", err)
	}
}

// TestServeStats: the counters move and the reply carries backend stats.
func TestServeStats(t *testing.T) {
	s := testServer(t, Config{DB: testDB(t)})
	c := testClient(t, s, DialOptions{})
	if _, err := c.Ping(1); err != nil {
		t.Fatal(err)
	}
	reply, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Server.Sessions != 1 || reply.Server.Requests < 2 || reply.DB == nil {
		t.Fatalf("stats reply = %+v", reply.Server)
	}
}

// TestServeCorruptFrameTearsDownSession: a CRC-invalid frame poisons the
// stream; the server counts it and drops the connection instead of
// guessing.
func TestServeCorruptFrameTearsDownSession(t *testing.T) {
	s := testServer(t, Config{DB: testDB(t)})
	conn := s.Pipe()
	defer conn.Close()
	if err := conn.Send([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err == nil {
		t.Fatal("expected the server to drop the connection")
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().ProtoErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("proto_errors never counted")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeClaimedLengthNotAllocated: a frame header claiming 64 MiB
// with one body byte behind it must not make the session allocate the
// claimed length — here before Hello, so before any authentication.
func TestServeClaimedLengthNotAllocated(t *testing.T) {
	s := testServer(t, Config{DB: testDB(t)})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 4; i++ {
		c, srv := net.Pipe()
		defer c.Close()
		s.ServeConn(srv)
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], 64<<20)
		// net.Pipe writes return once the reader took the bytes, so after
		// the body byte the session is reading the body.
		if _, err := c.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write([]byte{0}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("4 sessions each sent a 64 MiB header and 1 byte; heap grew %d bytes", grew)
	}
}

// TestServeDrain: Shutdown stops new work, finishes what is in flight,
// and reclaims every session's transaction and pins.
func TestServeDrain(t *testing.T) {
	db := testDB(t)
	s, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	c := testClient(t, s, DialOptions{User: "alice"})
	iface, err := c.NewObject(paperschema.TypeGateInterface, "")
	if err != nil {
		t.Fatal(err)
	}
	// Leave a transaction holding a lock and a snapshot pinned.
	if _, err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.SetAttr(iface, "Width", domain.Int(3)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.SnapOpen(); err != nil {
		t.Fatal(err)
	}

	if err := s.Shutdown(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ping(1); err == nil {
		t.Fatal("post-drain request succeeded")
	}

	st := s.Stats()
	if !st.Draining || st.Sessions != 0 {
		t.Fatalf("post-drain stats: %+v", st)
	}
	if st.TxnsAborted != 1 || st.SnapsReleased != 1 {
		t.Fatalf("teardown counters: aborted=%d released=%d, want 1/1", st.TxnsAborted, st.SnapsReleased)
	}
	if p := db.Stats().MVCC.Pins; p != 0 {
		t.Fatalf("pins after drain = %d, want 0", p)
	}
	lt := db.Txns().LockTableStats()
	if lt.Objects != 0 || lt.Granted != 0 || lt.Queued != 0 || lt.Waiters != 0 {
		t.Fatalf("lock table after drain: %+v", lt)
	}
	// The uncommitted transactional write must have rolled back.
	if v, err := db.GetAttr(iface, "Width"); err == nil && v != nil && v.Equal(cadcam.Int(3)) {
		t.Fatal("aborted transactional write is visible")
	}
	// New connections are refused outright.
	conn := s.Pipe()
	if _, err := DialConn(conn, DialOptions{}); err == nil {
		t.Fatal("dial after drain succeeded")
	}
}
