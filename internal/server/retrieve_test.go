package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzRetrieveRequest: arbitrary bytes at POST /v1/retrieve never panic and
// answer 200 or 400 only; a 200 carries one result list per query, each at
// most k hits (k = 0 is the engine's default, 6) in non-decreasing distance.
func FuzzRetrieveRequest(f *testing.F) {
	for _, body := range []string{
		`{"queries":["detect communities in the network","how toxic is this molecule"],"k":5}`,
		`{"queries":["the of and","?!","\u212aelvin \u0130stanbul","a b"],"k":0}`,
		`{"queries":["ok"],"k":100}`, `{"queries":["ok"],"k":101}`, `{"queries":["ok"],"k":-1}`,
		`{"queries":["ok",""]}`, `{"queries":[]}`, `{"queries":null,"k":null}`, `{"queries":"ok"}`,
		`{"queries":["ok"],"k":1e2}`, `{"queries":["ok"],"k":1.5}`, `{"Queries":["case"],"K":2}`,
		"{\"queries\":[\"raw \xff\xe2\x82 bytes\"],\"k\":3}", `{"queries":["a"]} trailing`,
		`{nope`, ``, `null`, `[]`, `{"queries":["dup"],"queries":["last","wins"],"k":1}`,
	} {
		f.Add([]byte(body))
	}
	testServer(f)
	handler := newServer(f, srvEngine, Options{}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/retrieve", bytes.NewReader(body)))
		if rec.Code == http.StatusBadRequest {
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d\nbody: %q", rec.Code, body)
		}
		var req RetrieveRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode: %v\nbody: %q", err, body)
		}
		k := req.K
		if k == 0 {
			k = 6
		}
		var out RetrieveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("reply does not decode: %v\nreply: %q", err, rec.Body.Bytes())
		}
		if len(out.Results) != len(req.Queries) {
			t.Fatalf("%d result lists for %d queries\nbody: %q", len(out.Results), len(req.Queries), body)
		}
		for i, hits := range out.Results {
			if len(hits) > k {
				t.Fatalf("query %d: %d hits, k = %d\nbody: %q", i, len(hits), k, body)
			}
			for j := 1; j < len(hits); j++ {
				if hits[j].Distance < hits[j-1].Distance {
					t.Fatalf("query %d: distances decrease: %+v\nbody: %q", i, hits, body)
				}
			}
		}
	})
}
