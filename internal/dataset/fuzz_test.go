package dataset

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"ses/internal/ebsn"
	"ses/internal/sestest"
)

// FuzzDatasetIO hammers the two JSON readers of the package with
// arbitrary bytes. The contract under fuzzing: malformed input errors
// and never panics; accepted input round-trips through save → load →
// save to identical bytes (loading canonicalizes, so the first re-save
// is the fixed point).
func FuzzDatasetIO(f *testing.F) {
	// Seed with one real instance and one real dataset document so the
	// fuzzer starts from accepted inputs, plus a few near-misses.
	inst := sestest.Random(sestest.Config{Users: 8, Events: 4, Intervals: 3, Competing: 2, Seed: 7})
	var ib bytes.Buffer
	if err := SaveInstance(&ib, inst); err != nil {
		f.Fatal(err)
	}
	f.Add(ib.Bytes())
	ds, err := ebsn.Generate(ebsn.Config{Seed: 3, NumUsers: 12, NumEvents: 8, NumTags: 16, NumGroups: 3})
	if err != nil {
		f.Fatal(err)
	}
	var db bytes.Buffer
	if err := SaveDataset(&db, ds); err != nil {
		f.Fatal(err)
	}
	f.Add(db.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"num_users":-1}`))
	f.Add([]byte(`{"activity":{"type":"table","table":[[2]]}}`))
	f.Add([]byte(`{"config":{},"event_tags":[[1]],"event_group":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if inst, err := LoadInstance(bytes.NewReader(data)); err == nil {
			var first bytes.Buffer
			if err := SaveInstance(&first, inst); err != nil {
				t.Fatalf("accepted instance failed to save: %v", err)
			}
			again, err := LoadInstance(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatalf("saved instance failed to reload: %v", err)
			}
			var second bytes.Buffer
			if err := SaveInstance(&second, again); err != nil {
				t.Fatalf("reloaded instance failed to save: %v", err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("instance save not canonical:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
			}
		}
		if ds, err := LoadDataset(bytes.NewReader(data)); err == nil {
			var first bytes.Buffer
			if err := SaveDataset(&first, ds); err != nil {
				t.Fatalf("accepted dataset failed to save: %v", err)
			}
			again, err := LoadDataset(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatalf("saved dataset failed to reload: %v", err)
			}
			var second bytes.Buffer
			if err := SaveDataset(&second, again); err != nil {
				t.Fatalf("reloaded dataset failed to save: %v", err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("dataset save not canonical:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
			}
		}
	})
}

// FuzzVectorDocJSON is the differential test of the interest-row
// decoder: for every input, json.Unmarshal into VectorDoc (whose
// UnmarshalJSON parses the canonical form itself) and into the
// method-less vectorDocJSON (encoding/json's reflective decode) must
// both accept or both reject, with the same error text, and decode the
// same row, values compared bit for bit.
func FuzzVectorDocJSON(f *testing.F) {
	for _, seed := range []string{
		`{"ids":[0,3,17],"vals":[0.25,1,0.0625]}`,
		`{"ids":[],"vals":[]}`,
		" {\n \"ids\" : [ 1 , 2 ] ,\t\"vals\" : [ 5e-1 , 1E0 ] } ",
		`{"ids":[-0,-3],"vals":[-0,-0.5e+2]}`,
		`null`,
		`{"IDS":[1],"Vals":[0.5]}`,
		`{"ids":[1],"vals":[0.5]}`,
		`{"vals":[0.5],"ids":[1]}`,
		`{"ids":[1],"vals":[0.5],"extra":true}`,
		`{"ids":[1]}`,
		`{"ids":[1.5],"vals":[0.5]}`,
		`{"ids":[2147483648],"vals":[0.5]}`,
		`{"ids":[2147483647,-2147483648],"vals":[0.5,0.5]}`,
		`{"ids":[1],"vals":[1e400]}`,
		`{"ids":[1],"vals":["0.5"]}`,
		`{"ids":null,"vals":[0.5]}`,
		`{"ids":[01],"vals":[0.5]}`,
		`{"ids":[1,],"vals":[0.5]}`,
		`[1,2]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fast VectorDoc
		errFast := json.Unmarshal(data, &fast)
		var slow vectorDocJSON
		errSlow := json.Unmarshal(data, &slow)
		if (errFast == nil) != (errSlow == nil) {
			t.Fatalf("%q: UnmarshalJSON error %v, reflective %v", data, errFast, errSlow)
		}
		if errFast != nil {
			if errFast.Error() != errSlow.Error() {
				t.Fatalf("%q: UnmarshalJSON error %q, reflective %q", data, errFast, errSlow)
			}
			return
		}
		if (fast.IDs == nil) != (slow.IDs == nil) || (fast.Vals == nil) != (slow.Vals == nil) {
			t.Fatalf("%q: nil slices differ: %+v vs %+v", data, fast, slow)
		}
		if !slices.Equal(fast.IDs, slow.IDs) {
			t.Fatalf("%q: ids %v, reflective %v", data, fast.IDs, slow.IDs)
		}
		if !slices.EqualFunc(fast.Vals, slow.Vals, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("%q: vals %v, reflective %v", data, fast.Vals, slow.Vals)
		}
	})
}
