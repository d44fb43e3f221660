package snap

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"ses/internal/core"
	"ses/internal/session"
	"ses/internal/sestest"
)

// FuzzSnapshotRestore drives arbitrary bytes through both snapshot
// decoders. Contract: malformed input errors and never panics;
// decodable input re-encodes idempotently; any snapshot that passes
// full restore validation round-trips through restore → snapshot
// byte-identically; and the binary layout decodes every accepted
// document exactly as gob does.
func FuzzSnapshotRestore(f *testing.F) {
	inst := sestest.Random(sestest.Config{Users: 10, Events: 5, Intervals: 3, Competing: 2, Seed: 21})
	s, err := session.New(inst, 3, session.Options{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.Resolve(context.Background()); err != nil {
		f.Fatal(err)
	}
	if err := s.Forbid(0, 1); err != nil {
		f.Fatal(err)
	}
	if err := s.CancelEvent(4); err != nil {
		f.Fatal(err)
	}
	doc, err := FromState("seed", s.ExportState())
	if err != nil {
		f.Fatal(err)
	}
	var jb, bb bytes.Buffer
	if err := EncodeJSON(&jb, doc); err != nil {
		f.Fatal(err)
	}
	if err := EncodeBinary(&bb, doc); err != nil {
		f.Fatal(err)
	}
	f.Add(jb.Bytes())
	f.Add(bb.Bytes())
	f.Add(gobEncode(f, doc))
	full, err := AppendBinary(nil, fullSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add([]byte(`{"version":1,"k":0,"instance":null,"utility":0,"counters":{}}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte("SESSNAP\x01garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound decoder allocations, not coverage
		}
		if doc, err := DecodeJSON(bytes.NewReader(data)); err == nil {
			checkSnapshot(t, doc, "json")
			checkMatchesGob(t, doc)
		}
		if doc, err := ParseBinary(data); err == nil {
			checkSnapshot(t, doc, "binary")
			checkMatchesGob(t, doc)
		}
	})
}

// checkMatchesGob: the binary layout's decode(encode(doc)) is the
// document gob's decode(encode(doc)) gives, for every document the
// layout carries; a document it refuses must not restore. Documents
// holding a NaN, which equals nothing, so that two decodes of one gob
// payload differ, are skipped.
func checkMatchesGob(t *testing.T, doc *Snapshot) {
	t.Helper()
	raw, err := AppendBinary(nil, doc)
	if err != nil {
		if _, serr := doc.State(); serr == nil {
			t.Fatalf("the binary layout refused a restorable snapshot: %v", err)
		}
		return
	}
	mine, err := ParseBinary(raw)
	if err != nil {
		t.Fatalf("binary layout: encoded snapshot failed to decode: %v", err)
	}
	legacy := gobEncode(t, doc)
	viaGob, err := ParseBinary(legacy)
	if err != nil {
		t.Fatalf("gob: encoded snapshot failed to decode: %v", err)
	}
	if again, _ := ParseBinary(legacy); !reflect.DeepEqual(viaGob, again) {
		return
	}
	if !reflect.DeepEqual(mine, viaGob) {
		t.Fatalf("binary layout decodes\n%+v\ngob decodes\n%+v", mine, viaGob)
	}
}

// checkSnapshot verifies the codec contract for one accepted snapshot.
func checkSnapshot(t *testing.T, doc *Snapshot, codec string) {
	t.Helper()
	if codec == "binary" {
		if _, err := BinarySize(doc); err != nil {
			// Only a gob payload decodes to a document the layout
			// cannot carry; checkMatchesGob checks it cannot restore.
			return
		}
	}
	encode := func(d *Snapshot) []byte {
		var b bytes.Buffer
		var err error
		if codec == "json" {
			err = EncodeJSON(&b, d)
		} else {
			err = EncodeBinary(&b, d)
		}
		if err != nil {
			t.Fatalf("%s: accepted snapshot failed to encode: %v", codec, err)
		}
		return b.Bytes()
	}
	decode := func(raw []byte) *Snapshot {
		var d *Snapshot
		var err error
		if codec == "json" {
			d, err = DecodeJSON(bytes.NewReader(raw))
		} else {
			d, err = ParseBinary(raw)
		}
		if err != nil {
			t.Fatalf("%s: encoded snapshot failed to decode: %v", codec, err)
		}
		return d
	}

	// Idempotent canonicalization: encode∘decode is a fixed point.
	b1 := encode(doc)
	b2 := encode(decode(b1))
	if !bytes.Equal(b1, b2) {
		t.Fatalf("%s: encode not idempotent:\n%q\nvs\n%q", codec, b1, b2)
	}

	// Full restore path: never panic; valid states round-trip
	// byte-identically through restore → snapshot.
	st, err := doc.State()
	if err != nil {
		return
	}
	restored, err := session.FromState(st, session.Options{Workers: 1})
	if err != nil {
		return
	}
	doc2, err := FromState(doc.Name, restored.ExportState())
	if err != nil {
		t.Fatalf("%s: restored session failed to snapshot: %v", codec, err)
	}
	r1 := encode(doc2)
	second, err := session.FromState(restored.ExportState(), session.Options{Workers: 1})
	if err != nil {
		t.Fatalf("%s: exported state of a restored session rejected: %v", codec, err)
	}
	doc3, err := FromState(doc.Name, second.ExportState())
	if err != nil {
		t.Fatalf("%s: second restore failed to snapshot: %v", codec, err)
	}
	if r2 := encode(doc3); !bytes.Equal(r1, r2) {
		t.Fatalf("%s: restore(snapshot(s)) not byte-identical:\n%q\nvs\n%q", codec, r1, r2)
	}
	// The restored schedule must be feasible on its instance.
	check := core.NewSchedule(st.Inst)
	for _, a := range restored.Schedule() {
		if err := check.Assign(a.Event, a.Interval); err != nil {
			t.Fatalf("%s: restored schedule infeasible: %v", codec, err)
		}
	}
}
