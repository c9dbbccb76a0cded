package repl

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
)

// Conn is the message transport between a shipper and a follower: an
// ordered, message-framed, bidirectional channel. Implementations need
// not be reliable — every failure mode short of silent corruption of a
// CRC-valid frame is recovered above this layer.
type Conn interface {
	Send(b []byte) error
	Recv() ([]byte, error)
	Close() error
}

// Dialer opens a fresh connection to a shipper; the follower redials
// through it on every retry.
type Dialer func() (Conn, error)

// pipeConn is an in-process Conn pair for same-process replication and
// tests. Either end's Close terminates both directions; a receiver
// drains messages already in flight before observing EOF.
type pipeConn struct {
	send chan []byte
	recv chan []byte
	done chan struct{}
	once *sync.Once
}

// Pipe returns the two ends of an in-process connection.
func Pipe() (Conn, Conn) {
	a := make(chan []byte, 16)
	b := make(chan []byte, 16)
	done := make(chan struct{})
	once := &sync.Once{}
	return &pipeConn{send: a, recv: b, done: done, once: once},
		&pipeConn{send: b, recv: a, done: done, once: once}
}

func (p *pipeConn) Send(b []byte) error {
	msg := append([]byte(nil), b...)
	select {
	case <-p.done:
		return io.ErrClosedPipe
	default:
	}
	select {
	case p.send <- msg:
		return nil
	case <-p.done:
		return io.ErrClosedPipe
	}
}

func (p *pipeConn) Recv() ([]byte, error) {
	select {
	case b := <-p.recv:
		return b, nil
	case <-p.done:
		select {
		case b := <-p.recv:
			return b, nil
		default:
			return nil, io.EOF
		}
	}
}

func (p *pipeConn) Close() error {
	p.once.Do(func() { close(p.done) })
	return nil
}

// maxStreamMessage bounds the length prefix a stream conn will trust,
// so a corrupted or hostile peer cannot make it allocate unbounded
// memory. Generous enough for a full checkpoint snapshot frame.
const maxStreamMessage = 1 << 30

// recvChunk is the receive buffer a stream conn starts a message with.
const recvChunk = 64 << 10

// streamConn frames messages over any byte stream (a TCP connection, a
// unix socket, a pair of pipes) with a 4-byte little-endian length
// prefix. Frame integrity still comes from the CRC inside each message.
type streamConn struct {
	rw io.ReadWriteCloser
	wm sync.Mutex
	rm sync.Mutex
}

// StreamConn wraps a byte stream as a message Conn — the process-to-
// process transport.
func StreamConn(rw io.ReadWriteCloser) Conn { return &streamConn{rw: rw} }

func (s *streamConn) Send(b []byte) error {
	s.wm.Lock()
	defer s.wm.Unlock()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := s.rw.Write(hdr[:]); err != nil {
		return err
	}
	_, err := s.rw.Write(b)
	return err
}

func (s *streamConn) Recv() ([]byte, error) {
	s.rm.Lock()
	defer s.rm.Unlock()
	var hdr [4]byte
	if _, err := io.ReadFull(s.rw, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxStreamMessage {
		return nil, ErrFrame
	}
	// The buffer grows only as bytes arrive, doubling from one chunk, so a
	// length prefix alone cannot make the receiver allocate what it claims.
	b := make([]byte, min(int(n), recvChunk))
	for off := 0; ; {
		if _, err := io.ReadFull(s.rw, b[off:]); err != nil {
			if off > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if off = len(b); off == int(n) {
			return b, nil
		}
		b = append(b, make([]byte, min(int(n)-off, off))...)
	}
}

func (s *streamConn) Close() error { return s.rw.Close() }

// isClosed reports errors that mean the peer hung up cleanly rather
// than a fault worth recording.
func isClosed(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed)
}
