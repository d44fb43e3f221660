package dataset

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"ses/internal/activity"
	"ses/internal/core"
	"ses/internal/sestest"
)

// TestSavedRowsTakeTheFastPath: every row SaveInstance writes is in
// the form UnmarshalJSON parses itself, and a saved instance decodes
// to the same document through either decoder.
func TestSavedRowsTakeTheFastPath(t *testing.T) {
	inst := sestest.Random(sestest.Config{Users: 40, Events: 12, Intervals: 4, Competing: 6, Seed: 11})
	var b bytes.Buffer
	if err := SaveInstance(&b, inst); err != nil {
		t.Fatal(err)
	}
	var raw struct {
		CandInterest struct {
			Rows []json.RawMessage `json:"rows"`
		} `json:"cand_interest"`
	}
	if err := json.Unmarshal(b.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for i, row := range raw.CandInterest.Rows {
		if _, _, ok := parseVectorDoc(row); !ok {
			t.Fatalf("saved row %d falls back to the reflective decode: %s", i, row)
		}
	}

	var doc InstanceDoc
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	// The same bytes, with every row decoded reflectively.
	var ref struct {
		CandInterest struct {
			Rows []vectorDocJSON `json:"rows"`
		} `json:"cand_interest"`
	}
	if err := json.Unmarshal(b.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}
	for i, r := range ref.CandInterest.Rows {
		if !reflect.DeepEqual(doc.CandInterest.Rows[i], VectorDoc(r)) {
			t.Fatalf("row %d: %+v, reflective %+v", i, doc.CandInterest.Rows[i], r)
		}
	}
	if err := doc.CheckRowKeys(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckRowKeys: a row with a key VectorDoc has no field for
// decodes as encoding/json would (the key is ignored), and is flagged
// for strict readers; other spellings encoding/json matches are not.
func TestCheckRowKeys(t *testing.T) {
	decode := func(rows string) *InstanceDoc {
		t.Helper()
		var doc InstanceDoc
		if err := json.Unmarshal([]byte(`{"comp_interest":{"rows":[`+rows+`]}}`), &doc); err != nil {
			t.Fatal(err)
		}
		return &doc
	}
	if err := decode(`{"ids":[1],"vals":[0.5]},{"IDS":[1],"Vals":[0.5]},null`).CheckRowKeys(); err != nil {
		t.Fatalf("known keys flagged: %v", err)
	}
	doc := decode(`{"ids":[1],"vals":[0.5]},{"ids":[2],"vals":[0.5],"weight":3}`)
	if got := doc.CompInterest.Rows[1]; len(got.IDs) != 1 || got.IDs[0] != 2 {
		t.Fatalf("row with an unknown key decoded to %+v", got)
	}
	err := doc.CheckRowKeys()
	if err == nil || !strings.Contains(err.Error(), "comp_interest row 1") {
		t.Fatalf("unknown key: CheckRowKeys = %v", err)
	}
	var nilDoc *InstanceDoc
	if err := nilDoc.CheckRowKeys(); err != nil {
		t.Fatal(err)
	}
}

// TestUnmarshalJSONRejectsInvalidJSON: called directly, on bytes no
// JSON decoder has validated, UnmarshalJSON accepts no more than
// encoding/json would.
func TestUnmarshalJSONRejectsInvalidJSON(t *testing.T) {
	for _, in := range []string{
		`{"ids":[+1],"vals":[0.5]}`,
		`{"ids":[01],"vals":[0.5]}`,
		`{"ids":[1.],"vals":[0.5]}`,
		`{"ids":[1],"vals":[.5]}`,
		`{"ids":[1],"vals":[5e]}`,
		`{"ids":[1,],"vals":[0.5]}`,
		`{"ids":[1],"vals":[0.5]} x`,
		`{"ids":[1],"vals":[0.5]`,
		`{"ids":[1] "vals":[0.5]}`,
	} {
		var d VectorDoc
		if err := d.UnmarshalJSON([]byte(in)); err == nil {
			t.Errorf("UnmarshalJSON(%s) = %+v, want an error", in, d)
		}
	}
}

// TestParseInstanceDoc: a saved instance, trailing newline included,
// parses in one pass into the document json.Unmarshal decodes, with
// each σ model; with anything but whitespace after it, which
// json.Unmarshal refuses, it does not parse.
func TestParseInstanceDoc(t *testing.T) {
	inst := sestest.Random(sestest.Config{Users: 40, Events: 12, Intervals: 4, Competing: 6, Seed: 11})
	table := make([][]float64, inst.NumUsers)
	for u := range table {
		table[u] = []float64{0.1, 0.2, 0.3, 0.4}
	}
	tab, err := activity.NewTable(table)
	if err != nil {
		t.Fatal(err)
	}
	for _, act := range []core.Activity{activity.UniformHash{Seed: 3}, activity.Constant(0.25), tab} {
		inst.Activity = act
		var b bytes.Buffer
		if err := SaveInstance(&b, inst); err != nil {
			t.Fatal(err)
		}
		got, ok := ParseInstanceDoc(b.Bytes())
		if !ok {
			t.Fatalf("saved instance does not parse in one pass:\n%s", b.Bytes())
		}
		var want InstanceDoc
		if err := json.Unmarshal(b.Bytes(), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("%T: one pass %+v, json.Unmarshal %+v", act, got, want)
		}
		trailing := append(b.Bytes(), 'x')
		_, ok = ParseInstanceDoc(trailing)
		if err := json.Unmarshal(trailing, new(InstanceDoc)); ok || err == nil {
			t.Fatalf("trailing byte: one pass took it (%v), json.Unmarshal error %v; want both to refuse", ok, err)
		}
	}
}
