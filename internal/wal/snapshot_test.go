package wal

import (
	"fmt"

	"cadcam/internal/codec"
	"cadcam/internal/object"
	"cadcam/internal/version"
)

// DecodeSnapshotState decodes a snapshot blob into its raw state records
// without importing them anywhere, so tests can compare them with the
// records they encoded.
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
