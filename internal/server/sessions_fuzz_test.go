package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzSessionCreate: arbitrary bytes at POST /v1/sessions never panic and
// answer 201, 400, 409 (the pinned id is live) or 503 (the session cap is
// reached) only. A body over 4 KiB is a 400. Otherwise the body decodes as
// encoding/json's Decoder reads it (an empty body is a plain create): a
// decode error or a malformed pinned id is a 400, and every other create is
// a 201 that echoes the pinned id or mints a fresh one. Each input is sent
// three times from an empty manager — once, again, and once more with the
// cap reached — so every answer is reachable and each run is deterministic.
func FuzzSessionCreate(f *testing.F) {
	for _, body := range []string{
		``, ` `, `{}`, `null`, `{"session_id":""}`, `{"session_id":"0123abcd"}`,
		`{"session_id":"0123456789abcdef0123456789abcdef"}`, `{"Session_ID":"deadbeef"}`,
		`{"session_id":"DEADBEEF"}`, `{"session_id":"0123abc"}`, `{"session_id":"../../etc"}`,
		`{"session_id":"` + strings.Repeat("a", 65) + `"}`, `{"session_id":7}`, `{"session_id":null}`,
		`{"session_id":"deadbeef","extra":[1,2]}`, `{"session_id":"cafebabe"} trailing`, `[]`, `"x"`,
		`{nope`, `{"session_id":"deadbeef"`, "{\"session_id\":\"\xff\"}",
	} {
		f.Add([]byte(body))
	}
	testServer(f)
	const maxSessions = 3
	// The handler alone, without the timing middleware: latency-dependent
	// coverage would make the fuzzer chase inputs it cannot reproduce.
	srv := newServer(f, srvEngine, Options{SessionTTL: time.Hour, MaxSessions: maxSessions})
	f.Fuzz(func(t *testing.T, body []byte) {
		srv.mgr.sessions.Range(func(id, _ any) bool {
			srv.mgr.Delete(id.(string))
			return true
		})
		var req SessionCreateRequest
		decErr := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		if errors.Is(decErr, io.EOF) {
			decErr = nil
		}
		for _, fill := range []bool{false, false, true} {
			for fill && srv.mgr.Len() < maxSessions {
				if _, err := srv.mgr.CreateWithID("", ""); err != nil {
					t.Fatal(err)
				}
			}
			full := srv.mgr.Len() >= maxSessions
			_, live := srv.mgr.sessions.Load(req.SessionID)
			want := http.StatusCreated
			switch {
			case len(body) > 4<<10, decErr != nil, req.SessionID != "" && !validPinnedID(req.SessionID):
				want = http.StatusBadRequest
			case req.SessionID != "" && live:
				want = http.StatusConflict
			case full:
				want = http.StatusServiceUnavailable
			}
			rec := httptest.NewRecorder()
			srv.handleSessionCreate(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body)))
			if rec.Code != want {
				t.Fatalf("status %d, want %d (cap reached: %v, pinned id live: %v)\nbody: %.300q\nreply: %s",
					rec.Code, want, full, live, body, rec.Body.Bytes())
			}
			if rec.Code != http.StatusCreated {
				continue
			}
			var info SessionInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
				t.Fatalf("201 reply does not decode: %v\nreply: %s", err, rec.Body.Bytes())
			}
			// A minted id is checked by length only: scanning its random
			// characters would make coverage differ from run to run.
			if req.SessionID != "" && info.SessionID != req.SessionID || req.SessionID == "" && len(info.SessionID) != 32 {
				t.Fatalf("201 for pinned id %q answered session %q\nbody: %.300q", req.SessionID, info.SessionID, body)
			}
		}
	})
}

// The 4 KiB body cap holds however early the JSON value ends: 4096 bytes
// create a session, 4097 are refused, padding or not.
func TestSessionCreateBodyCap(t *testing.T) {
	testServer(t)
	srv := newServer(t, srvEngine, Options{})
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{}` + strings.Repeat(" ", 4<<10-2), http.StatusCreated},
		{`{}` + strings.Repeat(" ", 4<<10-1), http.StatusBadRequest},
		{`{"session_id":"0123abcd"}` + strings.Repeat("x", 4<<10), http.StatusBadRequest},
		{`{"session_id":"` + strings.Repeat("b", 4<<10) + `"}`, http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("%d-byte body: status %d, want %d: %s", len(tc.body), rec.Code, tc.want, rec.Body.Bytes())
		}
	}
}
