package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ses"
	"ses/internal/dataset"
	"ses/internal/ebsn"
	"ses/internal/obs"
)

// sesgenDoc builds the instance document sesgen writes for a users-user
// dataset and k (paper defaults: |E| = 2k, |T| = 3k/2).
func sesgenDoc(tb testing.TB, users, k int, seed uint64) *dataset.InstanceDoc {
	tb.Helper()
	ds, err := ebsn.Generate(ebsn.Config{Seed: seed, NumUsers: users, NumEvents: 4096, NumTags: 2000, NumGroups: 150})
	if err != nil {
		tb.Fatal(err)
	}
	inst, err := dataset.BuildInstance(ds, dataset.PaperParams{K: k, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	doc, err := dataset.NewInstanceDoc(inst)
	if err != nil {
		tb.Fatal(err)
	}
	return doc
}

// withActivity returns a copy of doc with its σ model replaced.
func withActivity(doc *dataset.InstanceDoc, act dataset.ActivityDoc) *dataset.InstanceDoc {
	c := *doc
	c.Activity = act
	return &c
}

// tableActivity is a "table" σ for doc: one probability per user and
// interval.
func tableActivity(doc *dataset.InstanceDoc) dataset.ActivityDoc {
	table := make([][]float64, doc.NumUsers)
	for u := range table {
		table[u] = make([]float64, doc.NumIntervals)
		for t := range table[u] {
			table[u][t] = float64((u*7+t*3)%10) / 10
		}
	}
	return dataset.ActivityDoc{Type: "table", Table: table}
}

// envelope is the create body README's curl example sends: the
// instance file, trailing newline and all, inside the request object.
func envelope(tb testing.TB, name string, k int, doc *dataset.InstanceDoc) []byte {
	tb.Helper()
	inst, err := doc.Instance()
	if err != nil {
		tb.Fatal(err)
	}
	var file bytes.Buffer
	if err := dataset.SaveInstance(&file, inst); err != nil {
		tb.Fatal(err)
	}
	return fmt.Appendf(nil, `{"name":%q,"k":%d,"instance":%s}`, name, k, file.Bytes())
}

// marshal is json.Marshal that fails the test on error.
func marshal(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// referenceDecode is the decode decodeCreate falls back to.
func referenceDecode(body []byte) (createReq, error) {
	var req createReq
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// fullDoc sets every field InstanceDoc holds, down to its events, rows
// and σ model, to a non-zero value; checkFull proves it does.
func fullDoc() *dataset.InstanceDoc {
	return &dataset.InstanceDoc{
		NumUsers: 3, NumIntervals: 2, Resources: 2.5,
		Events:       []ses.Event{{Location: 1, Required: 0.5, Name: "a"}},
		Competing:    []ses.CompetingEvent{{Interval: 1, Name: "c"}},
		CandInterest: dataset.MatrixDoc{NumUsers: 3, Rows: []dataset.VectorDoc{{IDs: []int32{2}, Vals: []float64{0.25}}}},
		CompInterest: dataset.MatrixDoc{NumUsers: 3, Rows: []dataset.VectorDoc{{IDs: []int32{1}, Vals: []float64{0.5}}}},
		Activity:     dataset.ActivityDoc{Type: "table", Seed: 9, P: 0.5, Table: [][]float64{{0.1, 0.2}}},
	}
}

// checkFull reports the first exported field under v that is zero.
func checkFull(v reflect.Value, path string) error {
	switch v.Kind() {
	case reflect.Pointer:
		return checkFull(v.Elem(), path)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			if v.Field(i).IsZero() {
				return fmt.Errorf("%s.%s is zero", path, f.Name)
			}
			if err := checkFull(v.Field(i), path+"."+f.Name); err != nil {
				return err
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if err := checkFull(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestCanonicalCreateBodiesTakeOnePass: every create body the repo's
// own writers make is parsed in one pass, into the request
// encoding/json decodes from it. The "every field" row fails once
// InstanceDoc or a type under it gains a field the parser does not
// know: fullDoc must set it, json.Marshal then writes its key, and
// the parser, which knows every key, turns the body down.
func TestCanonicalCreateBodiesTakeOnePass(t *testing.T) {
	if err := checkFull(reflect.ValueOf(fullDoc()), "InstanceDoc"); err != nil {
		t.Fatalf("fullDoc no longer sets every field: %v", err)
	}
	doc := sesgenDoc(t, 300, 6, 3)
	noComp := *doc
	noComp.Competing = nil
	noComp.CompInterest = dataset.MatrixDoc{NumUsers: doc.NumUsers, Rows: []dataset.VectorDoc{}}
	indented, err := json.MarshalIndent(createReq{Name: "ind", K: 6, Instance: doc}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"sesgen file in README's curl envelope", envelope(t, "fest", 6, doc)},
		{"e2ebench createBody", fmt.Appendf(nil, `{"name":%q,"k":%d,"instance":%s}`, "cc-0-1", 6, marshal(t, doc))},
		{"objective", marshal(t, createReq{Name: "obj", K: 6, Objective: "fairness:0.5", Instance: doc})},
		{"MarshalIndent", indented},
		{"no competing events", marshal(t, createReq{Name: "nc", K: 6, Instance: &noComp})},
		{"table σ", envelope(t, "tab", 6, withActivity(doc, tableActivity(doc)))},
		{"constant σ", envelope(t, "const", 6, withActivity(doc, dataset.ActivityDoc{Type: "constant", P: 0.7}))},
		{"every field", marshal(t, createReq{Name: "full", K: 1, Objective: "omega", Instance: fullDoc()})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, onePass, err := decodeCreate(tc.body)
			if err != nil || !onePass {
				t.Fatalf("decodeCreate: one pass %v, error %v; body %.300s", onePass, err, tc.body)
			}
			want, err := referenceDecode(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("one pass decoded %+v, encoding/json %+v", got, want)
			}
		})
	}
	if !bytes.Contains(marshal(t, &noComp), []byte(`"competing":null`)) {
		t.Fatal(`the no-competing document lacks "competing":null`)
	}
}

// commaBodies are create bodies whose first interest row has an ids or
// vals array of size bytes of commas after one number: invalid JSON
// for which an array sized by its comma count would allocate four
// (ids) or eight (vals) bytes per input byte.
func commaBodies(size int) map[string][]byte {
	head := `{"name":"h","k":1,"instance":{"num_users":2,"num_intervals":1,"resources":1,"events":[],` +
		`"competing":null,"cand_interest":{"num_users":2,"rows":[`
	commas := strings.Repeat(",", size)
	return map[string][]byte{
		"ids":  []byte(head + `{"ids":[0` + commas + `],"vals":[0.5]}]}}}`),
		"vals": []byte(head + `{"ids":[0],"vals":[0` + commas + `]}]}}}`),
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCommaFilledArraysAllocateLittle: an interest array of a few MiB
// of commas is turned down by the dataset parser and answered 400 with
// encoding/json's error text by sesd, and neither allocates more than
// the body's size plus a constant beyond the buffer the body is read
// into.
func TestCommaFilledArraysAllocateLittle(t *testing.T) {
	const size, slack = 4 << 20, 64 << 10
	st := ses.NewStore(ses.WithWorkers(1))
	pipe := ses.NewPipeline(st, ses.WithResolveWorkers(1))
	defer pipe.Close()
	h := newServer(st, pipe, nil, nil, nil).routes()
	for field, body := range commaBodies(size) {
		doc := body[bytes.Index(body, []byte(`"instance":`))+len(`"instance":`) : len(body)-1]
		var ok bool
		if n := allocated(func() { _, ok = dataset.ParseInstanceDoc(doc) }); ok || n > uint64(len(doc))+slack {
			t.Errorf("%s: ParseInstanceDoc took the document (%v) or allocated %d bytes for a %d-byte document", field, ok, n, len(doc))
		}

		_, wantErr := referenceDecode(body)
		if wantErr == nil {
			t.Fatalf("%s: encoding/json accepted the body", field)
		}
		readBuf := allocated(func() {
			var b bytes.Buffer
			b.ReadFrom(bytes.NewReader(body))
		})
		req := httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		n := allocated(func() { h.ServeHTTP(rec, req) })
		if n > readBuf+uint64(len(body))+slack {
			t.Errorf("%s: sesd allocated %d bytes beyond its %d-byte read buffer for a %d-byte body", field, n-readBuf, readBuf, len(body))
		}
		var e struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusBadRequest ||
			e.Error != "decoding request: "+wantErr.Error() {
			t.Errorf("%s: sesd answered %d %s, want 400 with %q", field, rec.Code, rec.Body.String(), wantErr)
		}
	}
}

// TestDecodeSpan: a traced create carries a request.decode span with
// the body's size and whether it took the one pass; a restore's span
// carries its size and format.
func TestDecodeSpan(t *testing.T) {
	srv, o := obsTestServer(t)
	doc := sesgenDoc(t, 200, 4, 5)
	canonical := envelope(t, "canon", 4, doc)
	reordered := fmt.Appendf(nil, `{"instance":%s,"k":4,"name":"reord"}`, marshal(t, doc))
	decodeSpan := func(id string) *obs.SpanNode {
		t.Helper()
		tree, ok := o.Tracer.Trace(id)
		if !ok {
			t.Fatalf("trace %s not in the ring", id)
		}
		var found *obs.SpanNode
		var walk func([]*obs.SpanNode)
		walk = func(nodes []*obs.SpanNode) {
			for _, n := range nodes {
				if n.Name == obs.SpanDecode {
					found = n
				}
				walk(n.Children)
			}
		}
		walk(tree.Spans)
		if found == nil {
			t.Fatalf("trace %s has no %s span", id, obs.SpanDecode)
		}
		return found
	}
	send := func(url, ctype string, body []byte) string {
		t.Helper()
		resp, err := http.Post(srv.URL+url, ctype, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			t.Fatalf("POST %s: status %d", url, resp.StatusCode)
		}
		return resp.Header.Get("X-Ses-Trace")
	}
	for _, tc := range []struct {
		body    []byte
		onePass bool
	}{{canonical, true}, {reordered, false}} {
		sp := decodeSpan(send("/v1/sessions", "application/json", tc.body))
		if sp.Attrs["one_pass"] != tc.onePass || sp.Attrs["bytes"] != len(tc.body) {
			t.Errorf("create decode span attrs %v, want one_pass=%v bytes=%d", sp.Attrs, tc.onePass, len(tc.body))
		}
	}

	resp, err := http.Get(srv.URL + "/v1/sessions/canon/snapshot?format=binary")
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	snap.ReadFrom(resp.Body)
	resp.Body.Close()
	sp := decodeSpan(send("/v1/sessions/copy/restore", "application/octet-stream", snap.Bytes()))
	if sp.Attrs["format"] != "binary" || sp.Attrs["bytes"] != snap.Len() {
		t.Errorf("restore decode span attrs %v, want format=binary bytes=%d", sp.Attrs, snap.Len())
	}
}

// BenchmarkDecodeCreate times encoding/json's decode of a cold-create
// body (2000 users, k=20, |E|=40, |T|=30), which sesd ran before, and
// decodeCreate, with the keys in json.Marshal's order and with the
// envelope's keys reordered (which decodeCreate hands to encoding/json).
func BenchmarkDecodeCreate(b *testing.B) {
	doc := sesgenDoc(b, 2000, 20, 1)
	raw := marshal(b, doc)
	bodies := []struct {
		name string
		body []byte
	}{
		{"canonical", fmt.Appendf(nil, `{"name":"cc-0-0","k":20,"instance":%s}`, raw)},
		{"reordered", fmt.Appendf(nil, `{"instance":%s,"k":20,"name":"cc-0-0"}`, raw)},
	}
	for _, bc := range bodies {
		b.Run(bc.name+"/encoding_json", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			for b.Loop() {
				if _, err := referenceDecode(bc.body); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(bc.name+"/decodeCreate", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			for b.Loop() {
				if _, _, err := decodeCreate(bc.body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
