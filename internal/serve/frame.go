// Package serve implements the multi-session network service layer: a
// binary, CRC-framed request/response protocol over which many
// concurrent clients drive one cadcam.Database (or a read-only
// Follower), per-connection sessions that own transactions and pinned
// snapshots, request pipelining with strictly ordered responses,
// admission control tied to the WAL group-commit stall counters, and
// graceful drain.
//
// The wire format frames every message with a 4-byte little-endian
// payload length and a 4-byte CRC32-IEEE of the payload, then the
// payload, as the replication stream does — so a torn or corrupted
// transport write is detected as a torn journal tail is, and the
// connection is torn down rather than guessed at. Payload fields use the persistence
// layer's codec (uvarints, length-prefixed strings, tag-prefixed
// values), which is already fuzz-hardened against adversarial input.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"cadcam/internal/codec"
	"cadcam/internal/domain"
)

// ProtocolVersion is the wire protocol version a Hello negotiates. A
// server rejects any other version — there is exactly one deployed
// protocol so far.
const ProtocolVersion = 1

// Request kinds. Hello must be the first request on a session; every
// other kind requires the session to be established.
const (
	ReqHello     byte = 1  // Name=auth token, Seq=protocol version
	ReqPing      byte = 2  // liveness; echoes Seq
	ReqStats     byte = 3  // server+db counters, JSON in Response.Blob
	ReqNew       byte = 4  // Name=type, Name2=class → Sur
	ReqGet       byte = 5  // Sur, Name → Value (inheritance-resolved)
	ReqSet       byte = 6  // Sur, Name, Value
	ReqBind      byte = 7  // Name=relType, Sur=inheritor, Sur2=transmitter → Sur
	ReqUnbind    byte = 8  // Name=relType, Sur=inheritor
	ReqDelete    byte = 9  // Sur
	ReqBegin     byte = 10 // open the session transaction → Seq=txn id
	ReqCommit    byte = 11 // commit the session transaction
	ReqAbort     byte = 12 // abort the session transaction
	ReqQuery     byte = 13 // Name=class, Name2=where → Surs
	ReqExplain   byte = 14 // Name=class, Name2=where → Blob (plan text)
	ReqSnapOpen  byte = 15 // pin a snapshot → Snap=handle, Seq=pin seq
	ReqSnapGet   byte = 16 // Snap=handle, Sur, Name → Value at the pin
	ReqSnapClose byte = 17 // Snap=handle: release the pin

	reqKindMax = ReqSnapClose
)

// ReqHello flags.
const (
	// FlagReadOnly asks for a read-only session; mutating requests are
	// rejected with CodeReadOnly. Sessions served by a Follower backend
	// are read-only whether or not the client asks.
	FlagReadOnly byte = 1
)

// Response codes. CodeOK is success; everything else carries the error
// in Msg. Codes exist so clients can map failures onto typed errors
// without parsing messages.
const (
	CodeOK         byte = 0 // success
	CodeError      byte = 1 // application error (bad surrogate, constraint, ...)
	CodeBusy       byte = 2 // admission control rejected the request (ErrServerBusy)
	CodeReadOnly   byte = 3 // mutation on a read-only session (ErrReadOnly)
	CodeBadRequest byte = 4 // malformed or out-of-protocol request
	CodeDraining   byte = 5 // server is draining; no new work (ErrDraining)
	CodeAuth       byte = 6 // Hello rejected (bad token or version)

	codeMax = CodeAuth
)

// frameHeader is the length+CRC prefix every message carries.
const frameHeader = 8

// maxFrameName bounds any one string field a decoder will accept, and
// maxFrameSurs bounds a surrogate list, so corrupt or adversarial
// length fields cannot balloon memory.
const (
	maxFrameName = 1 << 20
	maxFrameSurs = 1 << 22
)

// ErrFrame reports a transport message that failed CRC or structural
// validation. The session is torn down: a corrupt frame means the
// transport lied, and the protocol has no way to resynchronize inside a
// poisoned stream.
var ErrFrame = errors.New("serve: corrupt frame")

// Request is one client→server message. ID is the pipeline correlation
// id: the client assigns them strictly increasing per connection, and
// the server echoes each one back in the matching Response, in request
// order.
type Request struct {
	ID    uint64
	Kind  byte
	Flags byte
	Snap  uint64           // snapshot handle (ReqSnapGet/ReqSnapClose)
	Sur   domain.Surrogate // primary object argument
	Sur2  domain.Surrogate // secondary object argument (Bind transmitter)
	Name  string           // attr / class / relType / type / token
	Name2 string           // second name (class of ReqNew, where of ReqQuery)
	Value domain.Value     // ReqSet argument
}

// Encode serializes the request with the CRC frame header.
func (q *Request) Encode() []byte {
	var b codec.Buf
	b.Byte(q.Kind)
	b.Byte(q.Flags)
	b.Uvarint(q.ID)
	b.Uvarint(q.Snap)
	b.Sur(q.Sur)
	b.Sur(q.Sur2)
	b.Str(q.Name)
	b.Str(q.Name2)
	b.Value(q.Value)
	return frameBytes(b.Bytes())
}

// DecodeRequest parses and CRC-checks one encoded request. Any
// truncation, checksum mismatch, oversized field, unknown kind or
// trailing garbage yields ErrFrame.
func DecodeRequest(raw []byte) (*Request, error) {
	payload, err := framePayload(raw)
	if err != nil {
		return nil, err
	}
	r := codec.NewReader(payload)
	q := &Request{Kind: r.Byte(), Flags: r.Byte()}
	if q.Kind < ReqHello || q.Kind > reqKindMax {
		return nil, ErrFrame
	}
	q.ID = r.Uvarint()
	q.Snap = r.Uvarint()
	q.Sur = r.Sur()
	q.Sur2 = r.Sur()
	q.Name = r.Str()
	q.Name2 = r.Str()
	q.Value = r.Value()
	if r.Err() != nil || r.Rest() != 0 ||
		len(q.Name) > maxFrameName || len(q.Name2) > maxFrameName {
		return nil, ErrFrame
	}
	if domain.IsNull(q.Value) {
		q.Value = nil
	}
	return q, nil
}

// Response is one server→client message. Responses are written in
// request order; ID echoes the request's correlation id so a pipelined
// client can double-check the pairing.
type Response struct {
	ID    uint64
	Kind  byte // echoes the request kind
	Code  byte
	Msg   string             // error message when Code != CodeOK
	Sur   domain.Surrogate   // created surrogate (New/Bind)
	Seq   uint64             // txn id / snapshot handle / pin seq / echo
	Value domain.Value       // Get/SnapGet result
	Surs  []domain.Surrogate // Query result
	Blob  []byte             // Stats JSON / Explain text
}

// Encode serializes the response with the CRC frame header.
func (p *Response) Encode() []byte {
	var b codec.Buf
	b.Byte(p.Kind)
	b.Byte(p.Code)
	b.Uvarint(p.ID)
	b.Uvarint(p.Seq)
	b.Sur(p.Sur)
	b.Str(p.Msg)
	b.Value(p.Value)
	b.Surs(p.Surs)
	b.Uvarint(uint64(len(p.Blob)))
	payload := append(b.Bytes(), p.Blob...)
	return frameBytes(payload)
}

// DecodeResponse parses and CRC-checks one encoded response.
func DecodeResponse(raw []byte) (*Response, error) {
	payload, err := framePayload(raw)
	if err != nil {
		return nil, err
	}
	r := codec.NewReader(payload)
	p := &Response{Kind: r.Byte(), Code: r.Byte()}
	if p.Kind < ReqHello || p.Kind > reqKindMax || p.Code > codeMax {
		return nil, ErrFrame
	}
	p.ID = r.Uvarint()
	p.Seq = r.Uvarint()
	p.Sur = r.Sur()
	p.Msg = r.Str()
	p.Value = r.Value()
	p.Surs = r.Surs()
	bl := r.Uvarint()
	if r.Err() != nil || len(p.Msg) > maxFrameName || len(p.Surs) > maxFrameSurs {
		return nil, ErrFrame
	}
	if bl != uint64(r.Rest()) {
		return nil, ErrFrame
	}
	if bl > 0 {
		p.Blob = payload[len(payload)-int(bl):]
	}
	if domain.IsNull(p.Value) {
		p.Value = nil
	}
	return p, nil
}

// frameBytes prefixes a payload with the length+CRC header.
func frameBytes(payload []byte) []byte {
	out := make([]byte, frameHeader, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// framePayload validates the header and returns the payload.
func framePayload(raw []byte) ([]byte, error) {
	if len(raw) < frameHeader+2 {
		return nil, ErrFrame
	}
	length := binary.LittleEndian.Uint32(raw[0:4])
	sum := binary.LittleEndian.Uint32(raw[4:8])
	if uint64(length) != uint64(len(raw)-frameHeader) {
		return nil, ErrFrame
	}
	payload := raw[frameHeader:]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, ErrFrame
	}
	return payload, nil
}

// kindName names a request kind for diagnostics.
func kindName(k byte) string {
	switch k {
	case ReqHello:
		return "Hello"
	case ReqPing:
		return "Ping"
	case ReqStats:
		return "Stats"
	case ReqNew:
		return "New"
	case ReqGet:
		return "Get"
	case ReqSet:
		return "Set"
	case ReqBind:
		return "Bind"
	case ReqUnbind:
		return "Unbind"
	case ReqDelete:
		return "Delete"
	case ReqBegin:
		return "Begin"
	case ReqCommit:
		return "Commit"
	case ReqAbort:
		return "Abort"
	case ReqQuery:
		return "Query"
	case ReqExplain:
		return "Explain"
	case ReqSnapOpen:
		return "SnapOpen"
	case ReqSnapGet:
		return "SnapGet"
	case ReqSnapClose:
		return "SnapClose"
	default:
		return fmt.Sprintf("Req(%d)", k)
	}
}
