package ses

import (
	"ses/internal/colstore"
)

// ColumnarStore is an open columnar instance file: a memory-mapped
// (or, where mmap is unavailable, contiguously read) struct-of-arrays
// interest matrix plus the instance metadata around it. The instance's
// interest rows are zero-copy views into the backing bytes — valid
// until Close, read-only — so engines fold straight over the mapping
// and a million-user instance opens in milliseconds without
// materializing its matrices on the heap. See ses/internal/colstore
// for the format.
type ColumnarStore = colstore.Store

// WriteColumnarInstance writes inst to path in the columnar format.
// The activity model must be the seeded uniform hash or a constant
// (the O(1)-state models; a dense table has no columnar form).
func WriteColumnarInstance(path string, inst *Instance) error {
	return colstore.WriteInstance(path, inst)
}

// OpenColumnarInstance opens a columnar instance file written by
// WriteColumnarInstance or `sesgen -colstore`, and any solver or
// session runs over it as over an in-memory instance:
//
//	st, err := ses.OpenColumnarInstance("meetup-1m.sescol")
//	defer st.Close()
//	s, err := ses.New("grd")
//	res, err := s.Solve(ctx, st.Instance(), 100)
func OpenColumnarInstance(path string) (*ColumnarStore, error) {
	return colstore.Open(path)
}
