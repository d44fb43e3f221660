package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ses"
	"ses/internal/core"
	"ses/internal/dataset"
	"ses/internal/sestest"
)

// FuzzDaemonRequests decodes its input into a short script of create,
// batch, resolve, restore, snapshot and delete requests and runs it
// against sesd's handlers over a fresh memory store and resolve
// pipeline. Nothing may panic (a panicking pipeline worker takes the
// process down, which fails the run), no answer may be a 5xx, and
// every other non-2xx answer must carry a JSON error body.
//
// Each script byte is one request: its low four bits modulo 6 pick
// the route, 0x80 the session ("s" or "t"), 0x40 a variant (a ?timeout
// on resolve and batch, the binary form on snapshot and restore), 0x20
// makes a restore send the last snapshot taken instead of the restore
// bytes, and 0x10 adds ?replace=true to a restore. The create, batch
// and restore bytes are the request bodies. The ?timeout is an hour:
// it takes the request off the pipeline, as any deadline does, but
// never fires, so every input replays the same way.
func FuzzDaemonRequests(f *testing.F) {
	createBody := func(name string, k int, doc *dataset.InstanceDoc) []byte {
		b, err := json.Marshal(createReq{Name: name, K: k, Instance: doc})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	batch, err := json.Marshal(batchReq{Mutations: []ses.Mutation{
		ses.AddEventOp(core.Event{Location: 1, Required: 2, Name: "x"}, map[int]float64{0: 0.9, 3: 0.4}),
		ses.UpdateInterestOp(1, 0, 0.8),
		ses.AddCompetingOp(core.CompetingEvent{Interval: 1, Name: "rival"}, map[int]float64{2: 0.7}),
		ses.PinOp(0, 2),
		ses.ForbidOp(1, 1),
		ses.CancelEventOp(4),
		ses.SetKOp(4),
		ses.UnpinOp(0),
		ses.AllowOp(1, 1),
	}})
	if err != nil {
		f.Fatal(err)
	}
	// A small instance keeps the inputs, and so the fuzzer's
	// minimization of each new one, short.
	small, err := dataset.NewInstanceDoc(sestest.Random(sestest.Config{Users: 6, Events: 4, Intervals: 3, Competing: 1, Seed: 5}))
	if err != nil {
		f.Fatal(err)
	}
	valid := createBody("s", 3, small)
	// create s, resolve, batch, snapshot, restore it as t, delete s.
	f.Add([]byte{0, 2, 1, 4, 0x80 | 0x20 | 3, 5}, valid, batch, []byte(nil))
	// The same through the binary snapshot and the ?timeout paths.
	f.Add([]byte{0, 0x40 | 4, 0x80 | 0x40 | 0x20 | 3, 0x80 | 0x40 | 2, 0x40 | 1}, valid, batch, []byte(nil))
	// k only bounds how far a resolve selects: a k of 2^40 reached
	// through create, set_k and restore resolves like any other (a
	// resolve that allocated per unit of k would take the daemon down).
	// create s, resolve it twice (the second replays the first), batch
	// with set_k, restore as t, resolve t.
	hugeBatch, err := json.Marshal(batchReq{Mutations: []ses.Mutation{ses.UpdateInterestOp(1, 0, 0.8), ses.SetKOp(1<<40 + 1)}})
	if err != nil {
		f.Fatal(err)
	}
	hugeRestore, err := json.Marshal(ses.Snapshot{Version: ses.SnapshotVersion, K: 1 << 40, Objective: "omega", Instance: small})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{0, 2, 2, 1, 0x80 | 3, 0x80 | 2}, createBody("s", 1<<40, small), hugeBatch, hugeRestore)
	for _, doc := range outOfRangeDocs() {
		restore, err := json.Marshal(ses.Snapshot{Version: ses.SnapshotVersion, K: 1, Objective: "omega", Instance: doc})
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte{0, 2, 3, 2}, createBody("s", 3, doc), batch, restore)
	}
	// The small instance as a saved file in README's curl envelope,
	// which decodes in one pass, and with the envelope's keys
	// reordered, which encoding/json decodes; each is created,
	// resolved, snapshotted and deleted.
	canonical := envelope(f, "s", 3, small)
	f.Add([]byte{0, 2, 4, 5}, canonical, batch, []byte(nil))
	f.Add([]byte{0, 2, 4, 5}, fmt.Appendf(nil, `{"k":3,"instance":%s,"name":"s"}`, marshal(f, small)), batch, []byte(nil))

	f.Fuzz(func(t *testing.T, script, create, batch, restore []byte) {
		st := ses.NewStore(ses.WithWorkers(1))
		pipe := ses.NewPipeline(st, ses.WithResolveWorkers(1))
		defer pipe.Close()
		srv := newServer(st, pipe, nil, nil, nil)
		srv.maxCells = 1 << 14 // keep every admitted instance cheap to resolve
		h := srv.routes()

		var snap []byte
		var snapType string
		for _, b := range script[:min(len(script), 12)] {
			name := "s"
			if b&0x80 != 0 {
				name = "t"
			}
			variant := b&0x40 != 0
			base := "/v1/sessions/" + name
			var method, url, ctype string
			var body []byte
			op := (b & 0x0f) % 6
			switch op {
			case 0:
				method, url, body = "POST", "/v1/sessions", create
			case 1:
				method, url, body = "POST", base+"/batch", batch
			case 2:
				method, url = "POST", base+"/resolve"
			case 3:
				method, url, body, ctype = "POST", base+"/restore", restore, "application/json"
				if b&0x20 != 0 && snap != nil {
					body, ctype = snap, snapType
				}
				if variant {
					ctype = "application/octet-stream"
				}
				if b&0x10 != 0 {
					url += "?replace=true"
				}
			case 4:
				method, url = "GET", base+"/snapshot"
				if variant {
					url += "?format=binary"
				}
			case 5:
				method, url = "DELETE", base
			}
			if variant && (op == 1 || op == 2) {
				url += "?timeout=1h"
			}
			req := httptest.NewRequest(method, url, bytes.NewReader(body))
			if ctype != "" {
				req.Header.Set("Content-Type", ctype)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if err := checkAnswer(rec); err != nil {
				t.Fatalf("%s %s: %v", method, url, err)
			}
			if op == 4 && rec.Code == http.StatusOK {
				snap, snapType = rec.Body.Bytes(), rec.Header().Get("Content-Type")
			}
		}
	})
}

// checkAnswer holds one fuzzed request's answer to the daemon's error
// contract: no 5xx, and a non-2xx answer carries a JSON body with a
// non-empty "error" string.
func checkAnswer(rec *httptest.ResponseRecorder) error {
	if rec.Code >= 200 && rec.Code < 300 {
		return nil
	}
	if rec.Code >= 500 {
		return fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		return fmt.Errorf("status %d without a JSON error body: %q", rec.Code, rec.Body.String())
	}
	return nil
}

// FuzzCreateBody is the differential test of the create decoder: for
// any bytes, decodeCreate must give what encoding/json's Decoder gives
// on the same bytes, the request deeply equal (nil against empty
// slices and each row's unknown-key flag included) or the error text
// identical.
func FuzzCreateBody(f *testing.F) {
	doc := sesgenDoc(f, 20, 2, 7)
	canonical := string(envelope(f, "s", 2, doc))
	for _, act := range []dataset.ActivityDoc{doc.Activity, tableActivity(doc), {Type: "constant", P: 0.25}} {
		f.Add(envelope(f, "s", 2, withActivity(doc, act)))
	}
	f.Add(marshal(f, createReq{Name: "o", K: 2, Objective: "attendance:0.3", Instance: doc}))
	row := `{"ids":[0,3],"vals":[0.5,0.25]}`
	small := `{"num_users":4,"num_intervals":1,"resources":1,"events":[{"Location":0,"Required":1,"Name":"e"}],` +
		`"competing":null,"cand_interest":{"num_users":4,"rows":[` + row + `]},` +
		`"comp_interest":{"num_users":4,"rows":[]},"activity":{"type":"uniformhash","seed":3}}`
	env := func(instance string) string { return `{"name":"s","k":1,"instance":` + instance + `}` }
	for _, body := range []string{
		env(small),
		// Reordered keys: envelope, document, row.
		`{"k":1,"name":"s","instance":` + small + `}`,
		env(strings.Replace(small, `"num_users":4,"num_intervals":1`, `"num_intervals":1,"num_users":4`, 1)),
		env(strings.Replace(small, row, `{"vals":[0.5,0.25],"ids":[0,3]}`, 1)),
		// Duplicated and case-folded keys.
		`{"name":"a","name":"s","k":1,"instance":` + small + `}`,
		`{"Name":"s","k":1,"instance":` + small + `}`,
		env(strings.Replace(small, `"num_users":4,"num_intervals"`, `"NUM_USERS":4,"num_intervals"`, 1)),
		env(strings.Replace(small, `"Location"`, `"location"`, 1)),
		// Escaped, non-ASCII and invalid UTF-8 names.
		`{"name":"f\u00e9st","k":1,"instance":` + small + `}`,
		`{"n\u0061me":"s","k":1,"instance":` + small + `}`,
		`{"name":"fést","k":1,"instance":` + small + `}`,
		"{\"name\":\"f\xe9st\",\"k\":1,\"instance\":" + small + "}",
		// Numbers an int field refuses.
		`{"name":"s","k":1.0,"instance":` + small + `}`,
		`{"name":"s","k":1e0,"instance":` + small + `}`,
		`{"name":"s","k":99999999999999999999,"instance":` + small + `}`,
		env(strings.Replace(small, `"seed":3`, `"seed":-3`, 1)),
		// null rows, row arrays and instance.
		env(strings.Replace(small, `"rows":[]`, `"rows":null`, 1)),
		env(strings.Replace(small, `"rows":[]`, `"rows":[null]`, 1)),
		env(strings.Replace(small, row, `{"ids":null,"vals":null}`, 1)),
		`{"name":"s","k":1,"instance":null}`,
		// Trailing bytes, truncation, comma-filled arrays.
		env(small) + `garbage`,
		env(small) + "\n}",
		env(small)[:len(env(small))/2],
		canonical[:len(canonical)-1],
		env(strings.Replace(small, `[0,3]`, `[0,,,,,,,,3]`, 1)),
		env(strings.Replace(small, `[0.5,0.25]`, `[0.5,,,,,,,,]`, 1)),
		"", "null", "{}", " \t\n",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, onePass, err := decodeCreate(body)
		want, wantErr := referenceDecode(body)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%q: decodeCreate error %v (one pass %v), encoding/json %v", body, err, onePass, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decodeCreate (one pass %v) gave %+v, encoding/json %+v", body, onePass, got, want)
		}
	})
}
