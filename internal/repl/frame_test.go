package repl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"testing"
)

func sampleFrames() []*Frame {
	return []*Frame{
		{Kind: KindHello, Epoch: 3, Offset: 4096, Seq: 17},
		{Kind: KindHello, Flags: FlagResync},
		{Kind: KindBatch, Epoch: 2, Offset: 128, End: 512, Seq: 9, Sealed: 40,
			Records: [][]byte{[]byte("alpha"), {}, []byte("gamma")}},
		{Kind: KindSnapshot, Epoch: 5, Blob: bytes.Repeat([]byte{0xAB}, 300)},
		{Kind: KindReset},
		{Kind: KindHeartbeat, Epoch: 7, Seq: 99, Sealed: 99},
		{Kind: KindSync, Epoch: 7},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		got, err := DecodeFrame(f.Encode())
		if err != nil {
			t.Fatalf("decode %+v: %v", f, err)
		}
		if got.Kind != f.Kind || got.Flags != f.Flags || got.Epoch != f.Epoch ||
			got.Offset != f.Offset || got.End != f.End || got.Seq != f.Seq || got.Sealed != f.Sealed {
			t.Errorf("header mismatch: %+v vs %+v", got, f)
		}
		if len(got.Records) != len(f.Records) {
			t.Fatalf("record count %d vs %d", len(got.Records), len(f.Records))
		}
		for i := range f.Records {
			if !bytes.Equal(got.Records[i], f.Records[i]) {
				t.Errorf("record %d mismatch", i)
			}
		}
		if !bytes.Equal(got.Blob, f.Blob) {
			t.Errorf("blob mismatch")
		}
	}
}

// TestFrameDecodeRejectsCorruption: any single flipped byte must fail
// the CRC — a torn or damaged transport write can never be applied.
func TestFrameDecodeRejectsCorruption(t *testing.T) {
	b := (&Frame{Kind: KindBatch, Seq: 1, Sealed: 2,
		Records: [][]byte{[]byte("payload-one"), []byte("payload-two")}}).Encode()
	for i := range b {
		bad := append([]byte(nil), b...)
		bad[i] ^= 0x40
		if _, err := DecodeFrame(bad); err == nil {
			t.Fatalf("flipped byte %d accepted", i)
		}
	}
	for cut := 1; cut < len(b); cut++ {
		if _, err := DecodeFrame(b[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := DecodeFrame(nil); err == nil {
		t.Fatal("nil frame accepted")
	}
	// Trailing garbage past the declared length is also a framing error.
	if _, err := DecodeFrame(append(append([]byte(nil), b...), 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestFrameDecodeBoundsRecordCount: a frame whose CRC is valid but
// whose record count is absurd must be rejected before allocation.
func TestFrameDecodeBoundsRecordCount(t *testing.T) {
	payload := []byte{KindBatch, 0}
	for i := 0; i < 5; i++ {
		payload = binary.AppendUvarint(payload, 0)
	}
	payload = binary.AppendUvarint(payload, maxFrameRecords+1)
	b := frame(payload)
	if _, err := DecodeFrame(b); err == nil {
		t.Fatal("absurd record count accepted")
	}
}

// frame wraps a payload in a valid CRC header (for adversarial tests
// where the payload itself is the attack).
func frame(payload []byte) []byte {
	out := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

func TestFrameUnknownKind(t *testing.T) {
	payload := []byte{9, 0}
	for i := 0; i < 5; i++ {
		payload = binary.AppendUvarint(payload, 0)
	}
	payload = binary.AppendUvarint(payload, 0)
	payload = binary.AppendUvarint(payload, 0)
	if _, err := DecodeFrame(frame(payload)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// FuzzReplFrameDecode: the decoder must never panic, and anything it
// accepts must re-encode to a decodable, identical frame.
func FuzzReplFrameDecode(f *testing.F) {
	for _, fr := range sampleFrames() {
		f.Add(fr.Encode())
	}
	f.Add([]byte{})
	f.Add([]byte{0xF5, 0x00, 0x01})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			return
		}
		again, err := DecodeFrame(fr.Encode())
		if err != nil {
			t.Fatalf("accepted frame does not round-trip: %v", err)
		}
		if again.Kind != fr.Kind || again.Seq != fr.Seq || len(again.Records) != len(fr.Records) ||
			!bytes.Equal(again.Blob, fr.Blob) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", again, fr)
		}
	})
}

// TestStreamConnGrowsToMessage: messages below, at and across the
// receive chunk arrive whole, and a body cut short is an unexpected EOF,
// not a clean close.
func TestStreamConnGrowsToMessage(t *testing.T) {
	a, b := net.Pipe()
	tx, rx := StreamConn(a), StreamConn(b)
	defer tx.Close()
	sizes := []int{0, 1, recvChunk - 1, recvChunk, recvChunk + 1, 3*recvChunk + 5}
	go func() {
		for _, n := range sizes {
			msg := make([]byte, n)
			for i := range msg {
				msg[i] = byte(i * 7)
			}
			if err := tx.Send(msg); err != nil {
				t.Error(err)
				return
			}
		}
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], 2*recvChunk)
		a.Write(hdr[:])
		a.Write(make([]byte, recvChunk+1))
		a.Close()
	}()
	for _, n := range sizes {
		got, err := rx.Recv()
		if err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("size %d: got %d bytes", n, len(got))
		}
		for i, c := range got {
			if c != byte(i*7) {
				t.Fatalf("size %d: byte %d = %d", n, i, c)
			}
		}
	}
	if _, err := rx.Recv(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated body: %v, want io.ErrUnexpectedEOF", err)
	}
}
