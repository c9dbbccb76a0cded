package wal

import (
	"cadcam/internal/codec"
	"cadcam/internal/object"
	"cadcam/internal/version"
)

// Snapshot format: magic, format version, class and index records, one
// record section (encodeRecords: string table, objects, bindings), the
// global counters, version state. Version 3 introduced the string table,
// version 4 the delta and flag record layout; older blobs are rejected.
const (
	snapMagic   = uint64(0xCADCA55E)
	snapVersion = uint64(4)
)

// EncodeSnapshot serializes the full logical state of the store and
// version manager from their exported states. Callers that need the
// snapshot to be atomic with a log rotation export from a snapshot pinned
// with the rotation (object.Store.PinCheckpoint).
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
