package snap

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"

	"ses/internal/core"
	"ses/internal/dataset"
	"ses/internal/ebsn"
	"ses/internal/session"
)

// gobEncode writes s in the binary form of builds before the
// hand-written layout: the magic, a header byte equal to the version,
// then a gob payload. ParseBinary still reads it; nothing but tests
// writes it.
func gobEncode(tb testing.TB, s *Snapshot) []byte {
	tb.Helper()
	b := bytes.NewBufferString(magic)
	b.WriteByte(byte(s.Version))
	if err := gob.NewEncoder(b).Encode(s); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// roundTrip encodes s in the current layout and decodes it back.
func roundTrip(tb testing.TB, s *Snapshot) *Snapshot {
	tb.Helper()
	raw, err := AppendBinary(nil, s)
	if err != nil {
		tb.Fatal(err)
	}
	if raw[len(magic)] != layoutFlag|byte(s.Version) {
		tb.Fatalf("header byte %#x, want %#x", raw[len(magic)], layoutFlag|byte(s.Version))
	}
	back, err := ParseBinary(raw)
	if err != nil {
		tb.Fatal(err)
	}
	return back
}

// TestGobEraFixture: testdata/gob_v2.snap and its JSON twin were
// written by the last build that encoded binary snapshots with gob,
// from fixtureSession. The gob file still decodes to exactly the JSON
// twin's document and restores the same session, utility bit for bit,
// and this build writes the twin's JSON bytes unchanged.
func TestGobEraFixture(t *testing.T) {
	rawGob, err := os.ReadFile("testdata/gob_v2.snap")
	if err != nil {
		t.Fatal(err)
	}
	rawJSON, err := os.ReadFile("testdata/gob_v2.json")
	if err != nil {
		t.Fatal(err)
	}
	if rawGob[len(magic)] != Version {
		t.Fatalf("fixture header byte %#x is not a gob header", rawGob[len(magic)])
	}
	fromGob, err := ParseBinary(rawGob)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := DecodeJSON(bytes.NewReader(rawJSON))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromGob, fromJSON) {
		t.Fatalf("gob fixture decodes to\n%+v\nJSON twin to\n%+v", fromGob, fromJSON)
	}
	if !reflect.DeepEqual(roundTrip(t, fromGob), fromGob) {
		t.Fatal("the gob fixture's document does not round-trip through the current layout")
	}

	live := fixtureSession(t)
	want, err := FromState("gob-era", live.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var j bytes.Buffer
	if err := EncodeJSON(&j, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j.Bytes(), rawJSON) {
		t.Fatalf("JSON snapshot of the fixture session changed:\n%s\nwant\n%s", j.Bytes(), rawJSON)
	}
	if !reflect.DeepEqual(fromGob, want) {
		t.Fatalf("gob fixture decodes to\n%+v\nthe live session snapshots to\n%+v", fromGob, want)
	}
	st, err := fromGob.State()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := session.FromState(st, session.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(restored.Utility()) != math.Float64bits(live.Utility()) {
		t.Fatalf("restored utility %v, live %v", restored.Utility(), live.Utility())
	}
	if !reflect.DeepEqual(restored.ExportState(), live.ExportState()) {
		t.Fatal("restored state differs from the live session's")
	}
}

// fullSnapshot sets every exported field under Snapshot, in every
// list element, to a non-zero value (TestFullSnapshotCarriesEveryField
// checks that it does).
func fullSnapshot() *Snapshot {
	row := func(ids []int32, vals ...float64) dataset.VectorDoc { return dataset.VectorDoc{IDs: ids, Vals: vals} }
	return &Snapshot{
		Version:   Version,
		Name:      "full",
		K:         3,
		Objective: "fairness:0.25",
		Instance: &dataset.InstanceDoc{
			NumUsers:     3,
			NumIntervals: 2,
			Resources:    7.5,
			Events:       []core.Event{{Location: 1, Required: 2.5, Name: "a"}, {Location: -4, Required: math.SmallestNonzeroFloat64, Name: "ß"}},
			Competing:    []core.CompetingEvent{{Interval: 1, Name: "c"}},
			CandInterest: dataset.MatrixDoc{NumUsers: 3, Rows: []dataset.VectorDoc{row([]int32{1, 2}, 0.5, 1), row([]int32{2}, 0.125)}},
			CompInterest: dataset.MatrixDoc{NumUsers: 3, Rows: []dataset.VectorDoc{row([]int32{math.MaxInt32}, math.MaxFloat64)}},
			Activity:     dataset.ActivityDoc{Type: "table", Seed: math.MaxUint64, P: 0.5, Table: [][]float64{{0.1, 0.2}, {0.3, 0.4}, {1, 0.9}}},
		},
		Cancelled: []int{1},
		Pins:      []Assign{{E: 1, T: 1}},
		Forbidden: []Assign{{E: 2, T: 1}, {E: math.MaxInt64, T: math.MinInt64}},
		Schedule:  []Assign{{E: 1, T: 1}},
		Utility:   1.25,
		Counters:  Counters{InitialScores: 1, ScoreUpdates: 2, Pops: 3, ListScans: 4, Moves: 5},
	}
}

// zeroFields lists the paths of the exported fields under v that hold
// their zero value, looking through pointers and into every element.
func zeroFields(v reflect.Value, path string) []string {
	if v.IsZero() {
		return []string{path}
	}
	var out []string
	switch v.Kind() {
	case reflect.Pointer:
		out = zeroFields(v.Elem(), path)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				out = append(out, zeroFields(v.Field(i), path+"."+f.Name)...)
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			out = append(out, zeroFields(v.Index(i), path+"[]")...)
		}
	}
	return out
}

// TestFullSnapshotCarriesEveryField: the binary layout round-trips a
// document in which every field is set. A field added to Snapshot or
// anything under it is zero in fullSnapshot, which fails here until
// the fixture sets it, and then the round trip fails until the codec
// carries it.
func TestFullSnapshotCarriesEveryField(t *testing.T) {
	full := fullSnapshot()
	if zero := zeroFields(reflect.ValueOf(full), "Snapshot"); len(zero) > 0 {
		t.Fatalf("fullSnapshot leaves fields zero: %v", zero)
	}
	if back := roundTrip(t, full); !reflect.DeepEqual(back, full) {
		t.Fatalf("round trip changed the document:\n%+v\nwant\n%+v", back, full)
	}
	raw, err := AppendBinary(nil, full)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := BinarySize(full); n != len(raw) {
		t.Fatalf("BinarySize %d, encoding %d bytes", n, len(raw))
	}
	var w bytes.Buffer
	if err := EncodeBinary(&w, full); err != nil || !bytes.Equal(w.Bytes(), raw) {
		t.Fatalf("EncodeBinary wrote %d bytes (%v), AppendBinary %d", w.Len(), err, len(raw))
	}
	// A decoded document shares nothing with its input.
	back, err := ParseBinary(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		raw[i] = 0xa5
	}
	if !reflect.DeepEqual(back, full) {
		t.Fatal("overwriting the input changed the decoded document")
	}
}

// TestEncoderRefusesWhatTheLayoutCannotCarry: a row whose ids and
// values differ in length (which no instance accepts) and a version
// with no header byte are errors, before anything is written.
func TestEncoderRefusesWhatTheLayoutCannotCarry(t *testing.T) {
	ragged := fullSnapshot()
	ragged.Instance.CompInterest.Rows[0].Vals = append(ragged.Instance.CompInterest.Rows[0].Vals, 0.5)
	wide := fullSnapshot()
	wide.Version = 200
	for name, s := range map[string]*Snapshot{"ragged row": ragged, "version 200": wide} {
		if _, err := BinarySize(s); err == nil {
			t.Errorf("%s: BinarySize accepted it", name)
		}
		if out, err := AppendBinary([]byte("x"), s); err == nil || string(out) != "x" {
			t.Errorf("%s: AppendBinary returned %q, %v", name, out, err)
		}
	}
	if _, err := ragged.State(); err == nil {
		t.Error("a ragged row restored")
	}
}

// TestEveryTruncationIsRejected: no proper prefix of an encoded
// snapshot decodes, and none panics.
func TestEveryTruncationIsRejected(t *testing.T) {
	raw, err := AppendBinary(nil, fullSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(raw); n++ {
		if _, err := ParseBinary(raw[:n]); err == nil {
			t.Fatalf("a %d-byte prefix of %d decoded", n, len(raw))
		}
	}
	if _, err := ParseBinary(append(raw, 0)); err == nil {
		t.Fatal("a trailing byte was accepted")
	}
}

// allocatedBytes returns the bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHostileCountsAllocateNothing: a payload whose counts claim more
// elements than its bytes can hold is refused before anything of the
// claimed size is allocated.
func TestHostileCountsAllocateNothing(t *testing.T) {
	// The snapshot up to the candidate matrix's counts: version 2,
	// empty name, k 0, empty objective, an instance of 0 users and
	// intervals, 0 resources, no events, no competing events, then
	// the matrix's user count.
	head := append([]byte(magic), layoutFlag|Version, 4, 0, 0, 0, 1, 0, 0)
	head = append(head, make([]byte, 8)...)
	head = append(head, 0, 0, 0)
	pad := func(b []byte) []byte { return append(b, make([]byte, 64-len(b))...) }
	cases := map[string][]byte{
		"2^31 nonzeros":  pad(binary.AppendUvarint(binary.AppendUvarint(bytes.Clone(head), 1), 1<<31)),
		"2^40 rows":      pad(binary.AppendUvarint(binary.AppendUvarint(bytes.Clone(head), 1<<40), 0)),
		"2^63 rows":      pad(binary.AppendUvarint(binary.AppendUvarint(bytes.Clone(head), 1<<63), 1<<63)),
		"2^31 events":    pad(binary.AppendUvarint(append([]byte(magic), layoutFlag|Version, 4, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 1<<31)),
		"2^40-byte name": pad(binary.AppendUvarint(append([]byte(magic), layoutFlag|Version, 4), 1<<40)),
	}
	for name, data := range cases {
		if len(data) != 64 {
			t.Fatalf("%s: %d-byte payload", name, len(data))
		}
		var err error
		if n := allocatedBytes(func() { _, err = ParseBinary(data) }); n >= 64<<10 {
			t.Errorf("%s: allocated %d bytes", name, n)
		}
		if err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// coldCreateSnapshot is the create record's document of a cold-create
// session: a fresh session over the document e2ebench uploads
// (2000-user EBSN dataset, paper parameters at k=20).
func coldCreateSnapshot(tb testing.TB) *Snapshot {
	tb.Helper()
	ds, err := ebsn.Generate(ebsn.Config{Seed: 1, NumUsers: 2000, NumEvents: 4096, NumTags: 2000, NumGroups: 150})
	if err != nil {
		tb.Fatal(err)
	}
	inst, err := dataset.BuildInstance(ds, dataset.PaperParams{K: 20, Intervals: 30, CandidateEvents: 40, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := session.New(inst, 20, session.Options{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	doc, err := FromState("cc-0-0", s.ExportState())
	if err != nil {
		tb.Fatal(err)
	}
	return doc
}

// TestCodecAllocations: encoding allocates its output once, and
// decoding allocates a fixed number of times per matrix, whatever the
// matrix's row count.
func TestCodecAllocations(t *testing.T) {
	doc := coldCreateSnapshot(t)
	if n := testing.AllocsPerRun(5, func() { AppendBinary(nil, doc) }); n != 1 {
		t.Errorf("AppendBinary: %v allocations, want 1", n)
	}
	decodeAllocs := func(rows int) float64 {
		s := fullSnapshot()
		m := &s.Instance.CandInterest
		m.Rows = nil
		for i := 0; i < rows; i++ {
			m.Rows = append(m.Rows, dataset.VectorDoc{IDs: []int32{int32(i % 3)}, Vals: []float64{0.5}})
		}
		raw, err := AppendBinary(nil, s)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() { ParseBinary(raw) })
	}
	if few, many := decodeAllocs(2), decodeAllocs(500); few != many {
		t.Errorf("ParseBinary: %v allocations for a 2-row matrix, %v for a 500-row one", few, many)
	}
}

// BenchmarkSnapshotCodec times the binary codec on a cold-create
// session's create-record document: encode, decode, and the decode of
// the same document's gob payload, which earlier builds wrote.
func BenchmarkSnapshotCodec(b *testing.B) {
	doc := coldCreateSnapshot(b)
	raw, err := AppendBinary(nil, doc)
	if err != nil {
		b.Fatal(err)
	}
	legacy := gobEncode(b, doc)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		for b.Loop() {
			if _, err := AppendBinary(nil, doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, c := range []struct {
		name string
		raw  []byte
	}{{"decode", raw}, {"gob_decode", legacy}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.raw)))
			for b.Loop() {
				if _, err := ParseBinary(c.raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
