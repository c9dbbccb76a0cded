package wal

import (
	"fmt"

	"cadcam/internal/codec"
	"cadcam/internal/object"
	"cadcam/internal/version"
)

// Snapshot format: magic, format version, class and index records, one
// record section (encodeRecords: string table, objects, bindings), the
// global counters, version state. Version 3 introduced the string table;
// older blobs are rejected.
const (
	snapMagic   = uint64(0xCADCA55E)
	snapVersion = uint64(3)
)

// EncodeSnapshot serializes the full logical state of the store and
// version manager from their exported states. Callers that need the
// snapshot to be atomic with a log rotation export under
// object.Store.WithExclusive.
func EncodeSnapshot(st *object.StoreState, vs *version.ManagerState) []byte {
	var e codec.Buf
	e.Uvarint(snapMagic)
	e.Uvarint(snapVersion)

	encodeClassRecords(&e, st.Classes)
	encodeIndexRecords(&e, st.Indexes)
	encodeRecords(&e, st.Objects, st.Bindings)
	e.Uvarint(st.NextSur)
	e.Uvarint(st.Seq)

	encodeVersionState(&e, vs)
	return e.Bytes()
}

// DecodeSnapshotState decodes a snapshot blob into its raw state records
// without importing them anywhere, so verification tooling can feed the
// same bytes to an independent model of the store.
func DecodeSnapshotState(b []byte) (*object.StoreState, *version.ManagerState, error) {
	r := codec.NewReader(b)
	if r.Uvarint() != snapMagic {
		return nil, nil, fmt.Errorf("wal: bad snapshot magic")
	}
	if v := r.Uvarint(); v != snapVersion {
		return nil, nil, fmt.Errorf("wal: unsupported snapshot version %d", v)
	}
	st := &object.StoreState{}
	st.Classes = decodeClassRecords(r)
	st.Indexes = decodeIndexRecords(r)
	st.Objects, st.Bindings = decodeRecords(r)
	st.NextSur = r.Uvarint()
	st.Seq = r.Uvarint()

	vs := decodeVersionState(r)
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	return st, vs, nil
}
