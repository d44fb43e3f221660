package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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
