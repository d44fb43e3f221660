package snap

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"ses/internal/core"
	"ses/internal/session"
	"ses/internal/sestest"
)

// mutatedSession builds a session with every kind of constraint state
// a snapshot must carry: extra event, interest update, competition,
// pin, forbid, cancellation and a committed schedule.
func mutatedSession(t *testing.T) *session.Scheduler {
	t.Helper()
	inst := sestest.Random(sestest.Config{Users: 30, Events: 12, Intervals: 5, Competing: 3, Seed: 11})
	s, err := session.New(inst, 6, session.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	added, err := s.AddEvent(core.Event{Location: 1, Required: 2, Name: "added"}, map[int]float64{0: 0.9, 3: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateInterest(2, 1, 0.7); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddCompeting(core.CompetingEvent{Interval: 2, Name: "rival"}, map[int]float64{1: 0.8}); err != nil {
		t.Fatal(err)
	}
	sched := s.Schedule()
	if len(sched) == 0 {
		t.Fatal("expected a non-empty schedule")
	}
	if err := s.Pin(sched[0].Event, sched[0].Interval); err != nil {
		t.Fatal(err)
	}
	if err := s.Forbid(added, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.CancelEvent(3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestJSONRoundTripIsIdentity(t *testing.T) {
	s := mutatedSession(t)
	st := s.ExportState()
	doc, err := FromState("fest", st)
	if err != nil {
		t.Fatal(err)
	}
	var b1 bytes.Buffer
	if err := EncodeJSON(&b1, doc); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeJSON(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Name != "fest" || dec.Version != Version {
		t.Fatalf("decoded header mismatch: %+v", dec)
	}
	st2, err := dec.State()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, st2) {
		t.Fatalf("state round trip not identity:\n%+v\nvs\n%+v", st, st2)
	}

	// Restore a live session and snapshot it again: byte-identical.
	restored, err := session.FromState(st2, session.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := FromState("fest", restored.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	if err := EncodeJSON(&b2, doc2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("restore(snapshot(s)) not byte-identical:\n%s\nvs\n%s", b1.Bytes(), b2.Bytes())
	}
}

func TestBinaryRoundTripIsIdentity(t *testing.T) {
	s := mutatedSession(t)
	doc, err := FromState("disk", s.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var b1 bytes.Buffer
	if err := EncodeBinary(&b1, doc); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBinary(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	st, err := dec.State()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := session.FromState(st, session.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := FromState("disk", restored.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	if err := EncodeBinary(&b2, doc2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("binary restore(snapshot(s)) not byte-identical")
	}
}

func TestRestoredSessionKeepsWorking(t *testing.T) {
	s := mutatedSession(t)
	st := s.ExportState()
	restored, err := session.FromState(st, session.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The restored session must resolve to exactly the schedule and
	// utility the original session holds (its mutations are already
	// committed, so the repair is a no-op on the schedule).
	d, err := restored.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added)+len(d.Removed)+len(d.Moved) != 0 {
		t.Fatalf("restored resolve changed a committed schedule: %+v", d)
	}
	if d.Utility != s.Utility() {
		t.Fatalf("restored utility %v != original %v", d.Utility, s.Utility())
	}
	if !reflect.DeepEqual(restored.Schedule(), s.Schedule()) {
		t.Fatal("restored schedule differs")
	}
}

func TestDecodeRejections(t *testing.T) {
	s := mutatedSession(t)
	doc, err := FromState("x", s.ExportState())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("json unknown field", func(t *testing.T) {
		var b bytes.Buffer
		if err := EncodeJSON(&b, doc); err != nil {
			t.Fatal(err)
		}
		tampered := strings.Replace(b.String(), `"version"`, `"sneaky":1,"version"`, 1)
		if _, err := DecodeJSON(strings.NewReader(tampered)); err == nil {
			t.Fatal("unknown field accepted")
		}
	})
	t.Run("json unknown field in an interest row", func(t *testing.T) {
		// Rows decode themselves (dataset.VectorDoc), out of reach of
		// the decoder's DisallowUnknownFields; DecodeJSON must still
		// refuse them.
		var b bytes.Buffer
		if err := EncodeJSON(&b, doc); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), `"vals":[`) {
			t.Fatal("snapshot has no interest row to tamper with")
		}
		tampered := strings.Replace(b.String(), `"vals":[`, `"sneaky":1,"vals":[`, 1)
		if _, err := DecodeJSON(strings.NewReader(tampered)); err == nil {
			t.Fatal("unknown row field accepted")
		}
	})
	t.Run("json future version", func(t *testing.T) {
		future := *doc
		future.Version = Version + 1
		var b bytes.Buffer
		if err := EncodeJSON(&b, &future); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeJSON(bytes.NewReader(b.Bytes())); err == nil {
			t.Fatal("future version accepted")
		}
	})
	t.Run("binary bad magic", func(t *testing.T) {
		var b bytes.Buffer
		if err := EncodeBinary(&b, doc); err != nil {
			t.Fatal(err)
		}
		raw := b.Bytes()
		raw[0] ^= 0xff
		if _, err := DecodeBinary(bytes.NewReader(raw)); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("binary future version", func(t *testing.T) {
		var b bytes.Buffer
		if err := EncodeBinary(&b, doc); err != nil {
			t.Fatal(err)
		}
		raw := b.Bytes()
		raw[len(magic)] = Version + 1
		if _, err := DecodeBinary(bytes.NewReader(raw)); err == nil {
			t.Fatal("future binary version accepted")
		}
	})
	t.Run("state validation", func(t *testing.T) {
		bad := *doc
		bad.Pins = []Assign{{E: 9999, T: 0}}
		st, err := bad.State()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := session.FromState(st, session.Options{}); err == nil {
			t.Fatal("out-of-range pin accepted")
		}
	})
}
