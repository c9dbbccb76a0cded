package wal

import (
	"fmt"

	"cadcam/internal/codec"
	"cadcam/internal/object"
	"cadcam/internal/version"
)

// Incremental checkpoint format. A checkpoint is no longer one snapshot
// blob but a *manifest* plus one *segment* per store shard:
//
//   - a segment holds the object and binding records owned by one shard
//     partition, exactly as the full snapshot would encode them;
//   - the manifest holds everything else — classes, the global counters,
//     the version-manager state — plus, per partition, the checkpoint
//     epoch whose segment file currently describes that partition.
//
// Shards that did not change since their last encoded segment keep the
// old segment file; the manifest simply keeps pointing at it. The
// manifest file is the commit point: it is written atomically (CRC frame,
// temp file, rename) after every referenced segment is durable, so a
// crash anywhere in a checkpoint leaves either the previous manifest or
// the new one fully backed by segments.
//
// A segment payload is magic, version, partition, then one record
// section (encodeRecords): the string table, the object records and the
// binding records. Decoders accept only the current version of each
// format; an older file is unreadable, never silently reinterpreted.
const (
	manifestMagic   = uint64(0xCADC0FFE)
	manifestVersion = uint64(2)
	segMagic        = uint64(0xCAD5E600)
	segVersion      = uint64(2)
)

// Manifest describes one committed incremental checkpoint.
type Manifest struct {
	// Epoch is the checkpoint epoch: the journal epoch whose log starts
	// empty at this state. Recovery replays wal files Epoch, Epoch+1, ...
	// (a failed checkpoint rotates the journal without committing a
	// manifest, leaving a chain).
	Epoch uint64
	// SegEpochs[p] is the epoch whose segment file holds partition p's
	// records; len(SegEpochs) is the partition count the store was sharded
	// into when the checkpoint ran.
	SegEpochs []uint64
	// Base is the non-partitioned store state: classes and counters, no
	// object or binding records.
	Base *object.StoreState
	// Versions is the full version-manager state (small; never split).
	Versions *version.ManagerState
}

// EncodeManifest serializes a manifest payload (the caller wraps it in a
// CRC frame via storage.WriteSnapshot).
func EncodeManifest(m *Manifest) []byte {
	var e codec.Buf
	e.Uvarint(manifestMagic)
	e.Uvarint(manifestVersion)
	e.Uvarint(m.Epoch)
	e.Uvarint(uint64(len(m.SegEpochs)))
	for _, se := range m.SegEpochs {
		e.Uvarint(se)
	}
	encodeClassRecords(&e, m.Base.Classes)
	encodeIndexRecords(&e, m.Base.Indexes)
	e.Uvarint(m.Base.NextSur)
	e.Uvarint(m.Base.Seq)
	encodeVersionState(&e, m.Versions)
	return e.Bytes()
}

// maxManifestParts bounds the partition count a decoder will accept, so a
// corrupt or fuzzed count byte cannot demand an absurd allocation.
const maxManifestParts = 1 << 16

// DecodeManifest parses a manifest payload.
func DecodeManifest(b []byte) (*Manifest, error) {
	r := codec.NewReader(b)
	if r.Uvarint() != manifestMagic {
		return nil, fmt.Errorf("wal: bad manifest magic")
	}
	if v := r.Uvarint(); v != manifestVersion {
		return nil, fmt.Errorf("wal: unsupported manifest version %d", v)
	}
	m := &Manifest{Epoch: r.Uvarint(), Base: &object.StoreState{}}
	parts := r.Uvarint()
	if parts > maxManifestParts {
		return nil, fmt.Errorf("wal: implausible manifest partition count %d", parts)
	}
	for i := uint64(0); i < parts && r.Err() == nil; i++ {
		m.SegEpochs = append(m.SegEpochs, r.Uvarint())
	}
	m.Base.Classes = decodeClassRecords(r)
	m.Base.Indexes = decodeIndexRecords(r)
	m.Base.NextSur = r.Uvarint()
	m.Base.Seq = r.Uvarint()
	m.Versions = decodeVersionState(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(m.SegEpochs) != int(parts) {
		return nil, fmt.Errorf("wal: truncated manifest partition table")
	}
	return m, nil
}

// EncodeSegment serializes one partition's records.
func EncodeSegment(part int, objs []object.ObjectRecord, binds []object.BindingRecord) []byte {
	var e codec.Buf
	e.Uvarint(segMagic)
	e.Uvarint(segVersion)
	e.Uvarint(uint64(part))
	encodeRecords(&e, objs, binds)
	return e.Bytes()
}

// DecodeSegment parses one partition's records and verifies the payload
// really belongs to partition `part` (a renamed or cross-copied segment
// file must not import silently).
func DecodeSegment(b []byte, part int) ([]object.ObjectRecord, []object.BindingRecord, error) {
	r := codec.NewReader(b)
	if r.Uvarint() != segMagic {
		return nil, nil, fmt.Errorf("wal: bad segment magic")
	}
	if v := r.Uvarint(); v != segVersion {
		return nil, nil, fmt.Errorf("wal: unsupported segment version %d", v)
	}
	if p := r.Uvarint(); r.Err() == nil && p != uint64(part) {
		return nil, nil, fmt.Errorf("wal: segment belongs to partition %d, want %d", p, part)
	}
	objs, binds := decodeRecords(r)
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	return objs, binds, nil
}
