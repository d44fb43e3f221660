package snap

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"

	"ses/internal/core"
	"ses/internal/dataset"
)

// layoutFlag set in the header byte marks the hand-written payload;
// the low seven bits are the document version. A header byte without
// it is a gob payload of that version (see the package doc).
const layoutFlag = 0x80

// BinarySize returns the exact number of bytes AppendBinary adds for
// s, or the error AppendBinary would return.
func BinarySize(s *Snapshot) (int, error) {
	if s == nil {
		return 0, errors.New("snap: nil snapshot")
	}
	e := encoder{sizing: true}
	e.snapshot(s)
	return e.n, e.err
}

// AppendBinary appends the binary form of s to dst: the magic header,
// one header byte (layoutFlag|version), then the payload. It grows dst
// at most once, to the exact size. A document the layout cannot carry
// (a version outside 0–127, an interest row whose ids and values
// differ in length) is an error; no such document restores.
func AppendBinary(dst []byte, s *Snapshot) ([]byte, error) {
	n, err := BinarySize(s)
	if err != nil {
		return dst, err
	}
	if cap(dst)-len(dst) < n {
		grown := make([]byte, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	e := encoder{buf: dst}
	e.snapshot(s)
	return e.buf, nil
}

// EncodeBinary writes the binary form of s (see AppendBinary) in one
// Write.
func EncodeBinary(w io.Writer, s *Snapshot) error {
	b, err := AppendBinary(nil, s)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// DecodeBinary reads r to its end and decodes the bytes with
// ParseBinary.
func DecodeBinary(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snap: reading snapshot: %w", err)
	}
	return ParseBinary(data)
}

// ParseBinary decodes a binary snapshot, either payload kind, checking
// the magic header and version before touching the payload. The
// result shares no memory with data, so callers may reuse data.
func ParseBinary(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+1 {
		return nil, fmt.Errorf("snap: reading snapshot header: %w", io.ErrUnexpectedEOF)
	}
	if !bytes.Equal(data[:len(magic)], []byte(magic)) {
		return nil, errors.New("snap: not a binary snapshot (bad magic)")
	}
	head, payload := data[len(magic)], data[len(magic)+1:]
	v := int(head &^ layoutFlag)
	if !knownVersion(v) {
		return nil, fmt.Errorf("%w: %d (this build reads %d and %d)", ErrVersion, v, versionOmegaOnly, Version)
	}
	var s *Snapshot
	if head&layoutFlag != 0 {
		d := decoder{b: payload}
		s = d.snapshot()
		if d.err == nil && len(d.b) != 0 {
			d.fail("%d trailing bytes", len(d.b))
		}
		if d.err != nil {
			return nil, fmt.Errorf("snap: decoding snapshot payload: %w", d.err)
		}
	} else {
		s = new(Snapshot)
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(s); err != nil {
			return nil, fmt.Errorf("snap: decoding snapshot payload: %w", err)
		}
	}
	if s.Version != v {
		return nil, fmt.Errorf("snap: header version %d does not match document version %d", v, s.Version)
	}
	return s, nil
}

// encoder writes the payload, or with sizing set only counts its
// bytes: both passes run the same field walk, so the count is exact.
type encoder struct {
	sizing bool
	n      int
	buf    []byte
	err    error
}

func (e *encoder) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("snap: "+format, args...)
	}
}

func (e *encoder) uvarint(v uint64) {
	if e.sizing {
		e.n += uvarintLen(v)
		return
	}
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *encoder) int(v int) {
	if e.sizing {
		e.n += uvarintLen(uint64(v)<<1 ^ uint64(v>>63))
		return
	}
	e.buf = binary.AppendVarint(e.buf, int64(v))
}

func (e *encoder) float(v float64) {
	if e.sizing {
		e.n += 8
		return
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.raw(s)
}

func (e *encoder) raw(s string) {
	if e.sizing {
		e.n += len(s)
		return
	}
	e.buf = append(e.buf, s...)
}

func (e *encoder) flag(b byte) {
	if e.sizing {
		e.n++
		return
	}
	e.buf = append(e.buf, b)
}

func (e *encoder) snapshot(s *Snapshot) {
	if s.Version < 0 || s.Version >= layoutFlag {
		e.fail("version %d has no binary header byte", s.Version)
	}
	e.raw(magic)
	e.flag(layoutFlag | byte(s.Version))
	e.int(s.Version)
	e.str(s.Name)
	e.int(s.K)
	e.str(s.Objective)
	if s.Instance == nil {
		e.flag(0)
	} else {
		e.flag(1)
		e.instance(s.Instance)
	}
	e.uvarint(uint64(len(s.Cancelled)))
	for _, c := range s.Cancelled {
		e.int(c)
	}
	for _, as := range [][]Assign{s.Pins, s.Forbidden, s.Schedule} {
		e.uvarint(uint64(len(as)))
		for _, a := range as {
			e.int(a.E)
			e.int(a.T)
		}
	}
	e.float(s.Utility)
	c := s.Counters
	for _, v := range [...]int{c.InitialScores, c.ScoreUpdates, c.Pops, c.ListScans, c.Moves} {
		e.int(v)
	}
}

func (e *encoder) instance(d *dataset.InstanceDoc) {
	e.int(d.NumUsers)
	e.int(d.NumIntervals)
	e.float(d.Resources)
	e.uvarint(uint64(len(d.Events)))
	for _, ev := range d.Events {
		e.int(ev.Location)
		e.float(ev.Required)
		e.str(ev.Name)
	}
	e.uvarint(uint64(len(d.Competing)))
	for _, c := range d.Competing {
		e.int(c.Interval)
		e.str(c.Name)
	}
	e.matrix(&d.CandInterest)
	e.matrix(&d.CompInterest)
	a := &d.Activity
	e.str(a.Type)
	e.uvarint(a.Seed)
	e.float(a.P)
	nnz := 0
	for _, row := range a.Table {
		nnz += len(row)
	}
	e.offsets(len(a.Table), nnz, func(i int) int { return len(a.Table[i]) })
	for _, row := range a.Table {
		e.floats(row)
	}
}

// matrix writes an interest matrix as a CSR triplet: row offsets,
// then every row's ids, then every row's values.
func (e *encoder) matrix(m *dataset.MatrixDoc) {
	e.int(m.NumUsers)
	nnz := 0
	for i, r := range m.Rows {
		if len(r.IDs) != len(r.Vals) {
			e.fail("interest row %d has %d ids but %d values", i, len(r.IDs), len(r.Vals))
		}
		nnz += len(r.IDs)
	}
	e.offsets(len(m.Rows), nnz, func(i int) int { return len(m.Rows[i].IDs) })
	if e.sizing {
		e.n += 12 * nnz
		return
	}
	for _, r := range m.Rows {
		out := e.extend(4 * len(r.IDs))
		for i, id := range r.IDs {
			binary.LittleEndian.PutUint32(out[4*i:], uint32(id))
		}
	}
	for _, r := range m.Rows {
		e.floats(r.Vals)
	}
}

// extend lengthens buf by n bytes, within the capacity AppendBinary
// sized exactly, and returns them.
func (e *encoder) extend(n int) []byte {
	l := len(e.buf)
	e.buf = e.buf[:l+n]
	return e.buf[l:]
}

// offsets writes the row count, the entry count and the rows+1 int64
// row offsets of a CSR section.
func (e *encoder) offsets(rows, nnz int, rowLen func(int) int) {
	e.uvarint(uint64(rows))
	e.uvarint(uint64(nnz))
	if e.sizing {
		e.n += 8 * (rows + 1)
		return
	}
	off := 0
	e.buf = binary.LittleEndian.AppendUint64(e.buf, 0)
	for i := 0; i < rows; i++ {
		off += rowLen(i)
		e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(off))
	}
}

func (e *encoder) floats(vs []float64) {
	if e.sizing {
		e.n += 8 * len(vs)
		return
	}
	out := e.extend(8 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// decoder reads the payload. The first error sticks: it empties the
// input, so every later read yields zero values and every later count
// is zero, and nothing more is allocated.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.b = nil
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int() int {
	v, n := binary.Varint(d.b)
	if n <= 0 || int64(int(v)) != v {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *decoder) float() float64 {
	if len(d.b) < 8 {
		d.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// count reads a list length and refuses one whose elements, each at
// least min bytes, cannot fit in the bytes left.
func (d *decoder) count(what string, min int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/min) {
		d.fail("%s: %d elements in %d bytes", what, n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.count("string", 1)
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) flag() byte {
	if len(d.b) < 1 {
		d.fail("truncated flag")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) snapshot() *Snapshot {
	s := &Snapshot{
		Version:   d.int(),
		Name:      d.str(),
		K:         d.int(),
		Objective: d.str(),
	}
	switch d.flag() {
	case 0:
	case 1:
		s.Instance = d.instance()
	default:
		d.fail("bad instance flag")
	}
	if n := d.count("cancelled", 1); n > 0 {
		s.Cancelled = make([]int, n)
		for i := range s.Cancelled {
			s.Cancelled[i] = d.int()
		}
	}
	s.Pins = d.assigns("pins")
	s.Forbidden = d.assigns("forbidden")
	s.Schedule = d.assigns("schedule")
	s.Utility = d.float()
	c := &s.Counters
	for _, p := range [...]*int{&c.InitialScores, &c.ScoreUpdates, &c.Pops, &c.ListScans, &c.Moves} {
		*p = d.int()
	}
	return s
}

func (d *decoder) assigns(what string) []Assign {
	n := d.count(what, 2)
	if n == 0 {
		return nil
	}
	as := make([]Assign, n)
	for i := range as {
		as[i] = Assign{E: d.int(), T: d.int()}
	}
	return as
}

func (d *decoder) instance() *dataset.InstanceDoc {
	doc := &dataset.InstanceDoc{
		NumUsers:     d.int(),
		NumIntervals: d.int(),
		Resources:    d.float(),
	}
	// An event is at least 10 bytes: location, ξ, name length.
	if n := d.count("events", 10); n > 0 {
		doc.Events = make([]core.Event, n)
		for i := range doc.Events {
			doc.Events[i] = core.Event{Location: d.int(), Required: d.float(), Name: d.str()}
		}
	}
	if n := d.count("competing", 2); n > 0 {
		doc.Competing = make([]core.CompetingEvent, n)
		for i := range doc.Competing {
			doc.Competing[i] = core.CompetingEvent{Interval: d.int(), Name: d.str()}
		}
	}
	doc.CandInterest = d.matrix()
	doc.CompInterest = d.matrix()
	a := &doc.Activity
	a.Type = d.str()
	a.Seed = d.uvarint()
	a.P = d.float()
	off, rows, nnz := d.offsets(8)
	if rows > 0 {
		vals := d.floats(nnz)
		a.Table = make([][]float64, rows)
		for i := range a.Table {
			if lo, hi := rowBounds(off, i); hi > lo {
				a.Table[i] = vals[lo:hi:hi]
			}
		}
	}
	return doc
}

// matrix reads a CSR triplet into one ids and one values slice; each
// row is a capacity-limited window of them.
func (d *decoder) matrix() dataset.MatrixDoc {
	m := dataset.MatrixDoc{NumUsers: d.int()}
	off, rows, nnz := d.offsets(12)
	if rows == 0 {
		return m
	}
	var ids []int32
	if nnz > 0 {
		ids = make([]int32, nnz)
		for i := range ids {
			ids[i] = int32(binary.LittleEndian.Uint32(d.b[4*i:]))
		}
		d.b = d.b[4*nnz:]
	}
	vals := d.floats(nnz)
	m.Rows = make([]dataset.VectorDoc, rows)
	for i := range m.Rows {
		if lo, hi := rowBounds(off, i); hi > lo {
			m.Rows[i] = dataset.VectorDoc{IDs: ids[lo:hi:hi], Vals: vals[lo:hi:hi]}
		}
	}
	return m
}

// offsets reads a CSR section's row and entry counts and its rows+1
// row offsets, whose entries take entrySize bytes each. The offsets
// must rise from 0 to the entry count, and the entries must fit in the
// bytes left after them; it returns the offsets' bytes.
func (d *decoder) offsets(entrySize int) (off []byte, rows, nnz int) {
	r, n := d.uvarint(), d.uvarint()
	left := uint64(len(d.b))
	if r >= left/8 || n > (left-8*(r+1))/uint64(entrySize) {
		d.fail("section of %d rows and %d entries in %d bytes", r, n, left)
		return nil, 0, 0
	}
	rows, nnz = int(r), int(n)
	off, d.b = d.b[:8*(rows+1)], d.b[8*(rows+1):]
	prev := uint64(0)
	for i := 0; i <= rows; i++ {
		o := binary.LittleEndian.Uint64(off[8*i:])
		if (i == 0 && o != 0) || o < prev || o > n || (i == rows && o != n) {
			d.fail("row offset %d of %d is %d", i, rows, o)
			return nil, 0, 0
		}
		prev = o
	}
	return off, rows, nnz
}

// rowBounds returns row i's entry range from validated offsets.
func rowBounds(off []byte, i int) (lo, hi int) {
	return int(binary.LittleEndian.Uint64(off[8*i:])), int(binary.LittleEndian.Uint64(off[8*(i+1):]))
}

// floats reads n float64s, whose bytes offsets has checked are there.
func (d *decoder) floats(n int) []float64 {
	if n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[8*i:]))
	}
	d.b = d.b[8*n:]
	return vs
}
