package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"chatgraph/internal/apis"
	"chatgraph/internal/core"
	"chatgraph/internal/graph"
	"chatgraph/internal/metrics"
)

// The envelope table: raw chat and job bodies whose handling was recorded on
// the commit before the upload path stopped going through json.Decoder +
// RawMessage, and must stay byte-identical. A case either names the error it
// must answer with, or a plainer body whose reply it must reproduce — which
// is how "which graph did the server end up using" is observed.

const (
	envQ = `"question":"Summarize the statistics of the graph"`
	// Two graphs the reply tells apart (3 and 4 nodes), one that only loadWire
	// rejects, and one that is not JSON at all.
	envG3       = `{"nodes":[{"id":0},{"id":1},{"id":2}],"edges":[{"from":0,"to":1},{"from":1,"to":2}]}`
	envG4       = `{"nodes":[{"id":0},{"id":1},{"id":2},{"id":3}],"edges":[{"from":0,"to":1},{"from":1,"to":2},{"from":2,"to":3}]}`
	envSelfLoop = `{"nodes":[{"id":7}],"edges":[{"from":7,"to":7}]}`
	envDupNode  = `{"nodes":[{"id":1},{"id":1}],"edges":[]}`
	envDangling = `{"nodes":[{"id":1},{"id":2}],"edges":[{"from":1,"to":2},{"from":9,"to":1},{"from":2,"to":2}]}`
)

type envelopeCase struct {
	name string
	body string
	// wantStatus with wantError for rejected bodies; sameAs for accepted ones
	// (the case must answer exactly like that body does).
	wantStatus int
	wantError  string
	sameAs     string
}

// envelopeCases are shared by the chat and the job route: the two decode the
// same question/graph envelope through the same helper.
func envelopeCases() []envelopeCase {
	overCap := `{` + envQ + `,"graph":{"nodes":[` + strings.Repeat(`{"id":0},`, maxUploadBody/9+1) + `{"id":0}],"edges":[]}}`
	return []envelopeCase{
		{name: "plain", body: `{` + envQ + `,"graph":` + envG3 + `}`, sameAs: `{` + envQ + `,"graph":` + envG3 + `}`},
		{name: "graph first", body: `{"graph":` + envG3 + `,` + envQ + `}`, sameAs: `{` + envQ + `,"graph":` + envG3 + `}`},
		{name: "whitespace everywhere", body: " \n{ " + envQ + " ,\t\"graph\" : \r\n" + envG3 + " } \n", sameAs: `{` + envQ + `,"graph":` + envG3 + `}`},
		{name: "trailing bytes after the object", body: `{` + envQ + `,"graph":` + envG3 + `} trailing garbage ]]`, sameAs: `{` + envQ + `,"graph":` + envG3 + `}`},
		{name: "trailing second object", body: `{` + envQ + `,"graph":` + envG3 + `}{"question":"other"}`, sameAs: `{` + envQ + `,"graph":` + envG3 + `}`},
		{name: "duplicate graph, last wins", body: `{` + envQ + `,"graph":` + envG3 + `,"graph":` + envG4 + `}`, sameAs: `{` + envQ + `,"graph":` + envG4 + `}`},
		{name: "duplicate graph, bad one first", body: `{` + envQ + `,"graph":` + envSelfLoop + `,"graph":` + envG3 + `}`, sameAs: `{` + envQ + `,"graph":` + envG3 + `}`},
		{name: "duplicate graph, bad one last", body: `{` + envQ + `,"graph":` + envG3 + `,"graph":` + envSelfLoop + `}`,
			wantStatus: 400, wantError: "bad graph: graph: self-loop on node 0 rejected"},
		{name: "case variant key", body: `{` + envQ + `,"Graph":` + envG3 + `}`, sameAs: `{` + envQ + `,"graph":` + envG3 + `}`},
		{name: "case variant after exact", body: `{` + envQ + `,"graph":` + envG3 + `,"GRAPH":` + envG4 + `}`, sameAs: `{` + envQ + `,"graph":` + envG4 + `}`},
		{name: "escaped graph key", body: `{` + envQ + `,"gr\u0061ph":` + envG3 + `}`, sameAs: `{` + envQ + `,"graph":` + envG3 + `}`},
		{name: "escaped question", body: `{"question":"Summarize the st\u0061tistics of\u0020the graph","graph":` + envG3 + `}`, sameAs: `{` + envQ + `,"graph":` + envG3 + `}`},
		{name: "duplicate question, last wins", body: `{"question":"","graph":` + envG3 + `,` + envQ + `}`, sameAs: `{` + envQ + `,"graph":` + envG3 + `}`},
		{name: "unknown members, nested", body: `{"x":{"graph":` + envG4 + `,"y":[1,"]}",{"z":null}]},` + envQ + `,"graph":` + envG3 + `}`, sameAs: `{` + envQ + `,"graph":` + envG3 + `}`},
		{name: "absent graph", body: `{` + envQ + `}`, sameAs: `{` + envQ + `}`},
		{name: "null graph", body: `{` + envQ + `,"graph":null}`, sameAs: `{` + envQ + `,"graph":{}}`},
		{name: "null then graph", body: `{` + envQ + `,"graph":null,"graph":` + envG3 + `}`, sameAs: `{` + envQ + `,"graph":` + envG3 + `}`},
		{name: "escaped label and attrs", body: `{` + envQ + `,"graph":{"nodes":[{"id":0,"label":"a\u00e9\ud83d\ude00\n","attrs":{"k\t":"v\\"}},{"id":1},{"id":2}],"edges":[{"from":0,"to":1,"label":"\"r\""},{"from":1,"to":2}]}}`,
			sameAs: `{` + envQ + `,"graph":{"nodes":[{"id":0,"label":"aé😀\n","attrs":{"k\t":"v\\"}},{"id":1},{"id":2}],"edges":[{"from":0,"to":1,"label":"\"r\""},{"from":1,"to":2}]}}`},
		{name: "duplicate key inside the graph", body: `{` + envQ + `,"graph":{"nodes":[{"id":5,"id":0},{"id":1},{"id":2}],"nodes":[{"id":0},{"id":1},{"id":2}],"edges":[{"from":0,"to":1},{"from":1,"to":2}]}}`,
			sameAs: `{` + envQ + `,"graph":` + envG3 + `}`},

		{name: "empty body", body: ``, wantStatus: 400, wantError: "decode request: EOF"},
		{name: "not json", body: `hello`, wantStatus: 400, wantError: "decode request: invalid character 'h' looking for beginning of value"},
		{name: "truncated envelope", body: `{` + envQ + `,"graph":` + envG3, wantStatus: 400, wantError: "decode request: unexpected EOF"},
		{name: "array envelope", body: `[` + envG3 + `]`, wantStatus: 400, wantError: "decode request: json: cannot unmarshal array into Go value of type server."},
		{name: "question of the wrong type", body: `{"question":7,"graph":` + envG3 + `}`, wantStatus: 400, wantError: "decode request: json: cannot unmarshal number into Go struct field "},
		{name: "empty question", body: `{"question":"","graph":` + envG3 + `}`, wantStatus: 400, wantError: "question is required"},
		{name: "empty question beats a bad graph", body: `{"graph":` + envSelfLoop + `}`, wantStatus: 400, wantError: "question is required"},
		{name: "graph syntax error beats an empty question", body: `{"question":"","graph":{"nodes":[{"id":01}]}}`, wantStatus: 400, wantError: "decode request: invalid character '1' after object key:value pair"},
		{name: "malformed envelope after a valid graph", body: `{"graph":` + envG3 + `,` + envQ + `,}`, wantStatus: 400, wantError: "decode request: invalid character '}' looking for beginning of object key string"},
		{name: "malformed envelope before a valid graph", body: `{"question":"a\qb","graph":` + envG3 + `}`, wantStatus: 400, wantError: "decode request: invalid character 'q' in string escape code"},
		{name: "control character in a label", body: `{` + envQ + `,"graph":{"nodes":[{"id":0,"label":"a` + "\x01" + `"}]}}`, wantStatus: 400, wantError: "decode request: invalid character '\\x01' in string literal"},
		{name: "graph of the wrong type", body: `{` + envQ + `,"graph":[1,2]}`, wantStatus: 400, wantError: "bad graph: graph: decode: json: cannot unmarshal array into Go value of type graph.jsonGraph"},
		{name: "graph string", body: `{` + envQ + `,"graph":"g"}`, wantStatus: 400, wantError: "bad graph: graph: decode: json: cannot unmarshal string into Go value of type graph.jsonGraph"},
		{name: "nodes of the wrong type", body: `{` + envQ + `,"graph":{"nodes":3}}`, wantStatus: 400, wantError: "bad graph: graph: decode: json: cannot unmarshal number into Go struct field jsonGraph.nodes of type []graph.jsonNode"},
		{name: "fractional id", body: `{` + envQ + `,"graph":{"nodes":[{"id":1.5}]}}`, wantStatus: 400, wantError: "bad graph: graph: decode: json: cannot unmarshal number 1.5 into Go struct field jsonNode.nodes.id of type int"},
		{name: "overflowing id", body: `{` + envQ + `,"graph":{"nodes":[{"id":92233720368547758070}]}}`, wantStatus: 400, wantError: "bad graph: graph: decode: json: cannot unmarshal number 92233720368547758070 into Go struct field jsonNode.nodes.id of type int"},
		{name: "weight out of range", body: `{` + envQ + `,"graph":{"nodes":[{"id":0},{"id":1}],"edges":[{"from":0,"to":1,"weight":1e999}]}}`, wantStatus: 400, wantError: "bad graph: graph: decode: json: cannot unmarshal number 1e999 into Go struct field jsonEdge.edges.weight of type float64"},
		{name: "self-loop", body: `{` + envQ + `,"graph":` + envSelfLoop + `}`, wantStatus: 400, wantError: "bad graph: graph: self-loop on node 0 rejected"},
		{name: "duplicate node id", body: `{` + envQ + `,"graph":` + envDupNode + `}`, wantStatus: 400, wantError: "bad graph: graph: duplicate node id 1"},
		{name: "first bad edge in payload order", body: `{` + envQ + `,"graph":` + envDangling + `}`, wantStatus: 400, wantError: "bad graph: graph: edge references unknown node 9"},
		{name: "body over the cap", body: overCap, wantStatus: 400, wantError: "decode request: http: request body too large"},
		{name: "valid envelope, trailing bytes over the cap", body: `{` + envQ + `,"graph":` + envG3 + `}` + strings.Repeat(" ", maxUploadBody), sameAs: `{` + envQ + `,"graph":` + envG3 + `}`},
	}
}

// postRaw posts body verbatim and returns the status and the reply bytes.
func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// checkEnvelopeError requires the exact status and an error string that is
// wantError, or starts with it where the tail names a Go request type that
// differs between the chat and job routes.
func checkEnvelopeError(t *testing.T, tc envelopeCase, status int, reply []byte) {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(reply, &eb); err != nil {
		t.Fatalf("reply is not an error body: %v\n%s", err, reply)
	}
	exact := !strings.HasSuffix(tc.wantError, "server.") && !strings.HasSuffix(tc.wantError, "struct field ")
	if status != tc.wantStatus || (exact && eb.Error != tc.wantError) || !strings.HasPrefix(eb.Error, tc.wantError) {
		t.Fatalf("status %d error %q, want %d %q", status, eb.Error, tc.wantStatus, tc.wantError)
	}
	if eb.RequestID == "" {
		t.Fatal("error body carries no request_id")
	}
}

func TestChatEnvelope(t *testing.T) {
	base := testServer(t).URL
	chat := func(t *testing.T, body string) (int, ChatResponse, []byte) {
		t.Helper()
		status, reply := postRaw(t, base+"/v1/sessions/"+createSession(t).SessionID+"/chat", body)
		var cr ChatResponse
		json.Unmarshal(reply, &cr) //nolint:errcheck // error bodies aren't ChatResponses
		cr.ElapsedMS, cr.Events = 0, nil
		return status, cr, reply
	}
	for _, tc := range envelopeCases() {
		t.Run(tc.name, func(t *testing.T) {
			status, got, reply := chat(t, tc.body)
			if tc.sameAs == "" {
				checkEnvelopeError(t, tc, status, reply)
				return
			}
			wantStatus, want, _ := chat(t, tc.sameAs)
			if status != http.StatusOK || wantStatus != http.StatusOK {
				t.Fatalf("status %d (reference %d), want 200: %s", status, wantStatus, reply)
			}
			if got.Answer != want.Answer || got.Chain != want.Chain || got.Kind != want.Kind {
				t.Fatalf("reply differs from the reference body's\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
	// The answer does tell the table's graphs apart, so "same as" means
	// something.
	_, a3, _ := chat(t, `{`+envQ+`,"graph":`+envG3+`}`)
	_, a4, _ := chat(t, `{`+envQ+`,"graph":`+envG4+`}`)
	_, none, _ := chat(t, `{`+envQ+`}`)
	_, empty, _ := chat(t, `{`+envQ+`,"graph":{}}`)
	if a3.Answer == a4.Answer || a3.Answer == none.Answer || a3.Answer == empty.Answer {
		t.Fatalf("reference replies do not distinguish the graphs:\n%q\n%q\n%q\n%q", a3.Answer, a4.Answer, none.Answer, empty.Answer)
	}
}

func TestJobEnvelope(t *testing.T) {
	base := testServer(t).URL
	run := func(t *testing.T, body string) (int, ChatResponse, []byte) {
		t.Helper()
		status, reply := postRaw(t, base+"/v1/jobs", body)
		if status != http.StatusAccepted {
			return status, ChatResponse{}, reply
		}
		var info JobInfo
		if err := json.Unmarshal(reply, &info); err != nil {
			t.Fatal(err)
		}
		done := waitJobState(t, base, info.JobID, "done")
		cr := *done.Result
		cr.ElapsedMS, cr.Events = 0, nil
		return status, cr, reply
	}
	cases := append(envelopeCases(),
		// Job-only members keep their place in the order of checks: priority
		// and job id before the graph, the chain after it.
		envelopeCase{name: "bad priority beats a bad graph", body: `{` + envQ + `,"priority":"urgent","graph":` + envSelfLoop + `}`,
			wantStatus: 400, wantError: `jobs: unknown priority "urgent" (want low, normal, or high)`},
		envelopeCase{name: "bad job id beats a bad graph", body: `{` + envQ + `,"job_id":"NOT-HEX","graph":` + envSelfLoop + `}`,
			wantStatus: 400, wantError: ErrBadID.Error()},
		envelopeCase{name: "bad graph beats a bad chain", body: `{` + envQ + `,"chain":"no.such_api","graph":` + envSelfLoop + `}`,
			wantStatus: 400, wantError: "bad graph: graph: self-loop on node 0 rejected"},
		envelopeCase{name: "pinned chain after the graph", body: `{"graph":` + envG3 + `,"chain":"graph.stats -> report.compose",` + envQ + `}`,
			sameAs: `{` + envQ + `,"chain":"graph.stats -> report.compose","graph":` + envG3 + `}`},
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, got, reply := run(t, tc.body)
			if tc.sameAs == "" {
				checkEnvelopeError(t, tc, status, reply)
				return
			}
			wantStatus, want, _ := run(t, tc.sameAs)
			if status != http.StatusAccepted || wantStatus != http.StatusAccepted {
				t.Fatalf("status %d (reference %d), want 202: %s", status, wantStatus, reply)
			}
			if got.Answer != want.Answer || got.Chain != want.Chain || got.Kind != want.Kind {
				t.Fatalf("result differs from the reference body's\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
}

// TestUploadContentKeyEnvelope pins the router's view of the same bodies:
// the key is the content hash of the graph the backend would use, and bodies
// json.Unmarshal rejects (trailing bytes included) have none.
func TestUploadContentKeyEnvelope(t *testing.T) {
	key := func(body string) string {
		k, ok := UploadContentKey([]byte(body))
		if ok != (k != "") {
			t.Fatalf("key %q with ok=%v", k, ok)
		}
		return k
	}
	k3, k4 := key(`{"graph":`+envG3+`}`), key(`{"graph":`+envG4+`}`)
	kEmpty := key(`{"graph":{}}`)
	if k3 == "" || k4 == "" || kEmpty == "" || k3 == k4 || k3 == kEmpty {
		t.Fatalf("reference keys %q %q %q", k3, k4, kEmpty)
	}
	for _, tc := range []struct{ name, body, want string }{
		{"surrounding members", `{` + envQ + `,"graph":` + envG3 + `,"priority":"low"}`, k3},
		{"whitespace", " {\n\"graph\" :\t" + envG3 + "\r\n} ", k3},
		{"duplicate graph, last wins", `{"graph":` + envG3 + `,"graph":` + envG4 + `}`, k4},
		{"case variant key", `{"GRAPH":` + envG4 + `}`, k4},
		{"escaped key", `{"gr\u0061ph":` + envG3 + `}`, k3},
		{"null graph", `{"graph":null}`, kEmpty},
		{"absent graph", `{` + envQ + `}`, ""},
		{"trailing bytes", `{"graph":` + envG3 + `} x`, ""},
		{"trailing object", `{"graph":` + envG3 + `}{}`, ""},
		{"truncated", `{"graph":` + envG3, ""},
		{"syntax error after the graph", `{"graph":` + envG3 + `,}`, ""},
		{"syntax error in the graph", `{"graph":{"nodes":[{"id":01}]}}`, ""},
		{"self-loop", `{"graph":` + envSelfLoop + `}`, ""},
		{"question of the wrong type", `{"question":7,"graph":` + envG3 + `}`, k3},
	} {
		if got := key(tc.body); got != tc.want {
			t.Errorf("%s: key %q, want %q", tc.name, got, tc.want)
		}
	}
}

// BenchmarkDecodeChat is the upload front half in isolation — body bytes →
// envelope → parsed graph → content + exact hash → intern lookup — over the
// two graph shapes chat_large_cold uploads, so bench's graph.parse_ms,
// graphstore.intern_ms and server.self_ms have a `go test -bench` twin.
func BenchmarkDecodeChat(b *testing.B) {
	env := &apis.Env{}
	eng, err := core.NewEngine(core.Config{Registry: apis.Default(env), Env: env, TrainSeed: 1, TrainExamples: 50})
	if err != nil {
		b.Fatal(err)
	}
	s := New(eng, Options{Metrics: metrics.NewRegistry()})
	defer s.Close()
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"sbm4x50", graph.PlantedCommunities(4, 50, .3, .02, rng)},
		{"kg300", graph.KnowledgeGraph(300, 900, rng)},
	} {
		gj, err := json.Marshal(tc.g)
		if err != nil {
			b.Fatal(err)
		}
		body, err := json.Marshal(ChatRequest{Question: "Write a brief report for G", Graph: gj})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				r := httptest.NewRequest(http.MethodPost, "/v1/sessions/x/chat", bytes.NewReader(body))
				if _, g, ok := s.decodeChat(httptest.NewRecorder(), r); !ok || g == nil {
					b.Fatal("decodeChat rejected the body")
				}
			}
		})
	}
}

// decodeUploadOracle is the upload decode as it was before the envelope
// helper: one encoding/json pass over the whole body into the request struct
// (RawMessage copy of the graph included), then graph.ParseJSON on the copy.
func decodeUploadOracle(body []byte, decode func([]byte) error, raw *json.RawMessage) (upload, error) {
	if err := decode(body); err != nil {
		return upload{}, err
	}
	if len(*raw) == 0 {
		return upload{}, nil
	}
	g, err := graph.ParseJSON(*raw)
	return upload{g: g, err: err}, nil
}

// sameUpload reports how two decodes of one body differ, if they do.
func sameUpload(got upload, gotErr error, want upload, wantErr error) error {
	text := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	switch {
	case text(gotErr) != text(wantErr):
		return fmt.Errorf("envelope error %q, oracle %q", text(gotErr), text(wantErr))
	case text(got.err) != text(want.err):
		return fmt.Errorf("graph error %q, oracle %q", text(got.err), text(want.err))
	case (got.g == nil) != (want.g == nil):
		return fmt.Errorf("graph present %v, oracle %v", got.g != nil, want.g != nil)
	case got.g == nil:
		return nil
	}
	gj, _ := json.Marshal(got.g)
	wj, _ := json.Marshal(want.g)
	if !bytes.Equal(gj, wj) || got.g.ContentHash() != want.g.ContentHash() || got.g.Version() != want.g.Version() {
		return fmt.Errorf("graph %s, oracle %s", gj, wj)
	}
	return nil
}

// FuzzDecodeUpload holds the envelope helper to the oracle on any body, for
// each of its three callers: the chat and job handlers (Decoder semantics,
// bytes after the object ignored) and the router's UploadContentKey
// (Unmarshal semantics).
func FuzzDecodeUpload(f *testing.F) {
	for _, tc := range envelopeCases() {
		if len(tc.body) < 1<<16 {
			f.Add([]byte(tc.body))
		}
	}
	for _, g := range []string{
		envG3, envSelfLoop, `null`, `{}`, `[]`, `7`, `"g"`, `{"nodes":[{"id":01}]}`, `{"nodes":[{"id":1e2},{"id":1.0},{"id":92233720368547758070}]}`,
		`{"name":"a\"b\\c\/d\b\f\n\r\t\u00e9","nodes":[{"id":0,"label":"\ud83d\ude00 \ud83d \ude00","attrs":{"k":"v"}}]}`,
		"{\"nodes\":[{\"id\":0,\"label\":\"a\xffb\xe2\x82\"}]}", "{\"name\":\"raw\x01control\"}",
		`{"nodes":[{"id":0},{"id":1}],"edges":[{"from":0,"to":1,"weight":-0},{"from":1,"to":0,"weight":1E+2},{"from":0,"to":1,"weight":1e999}]}`,
		`{"Nodes":[{"ID":4}],"nodes":[{"id":1,"id":2}]}`, `{"x":` + strings.Repeat("[", 64) + strings.Repeat("]", 64) + `,"nodes":[{"id":0}]}`,
	} {
		f.Add([]byte(`{` + envQ + `,"graph":` + g + `}`))
		f.Add([]byte(`{"graph":` + g + `,"chain":"graph.stats","priority":"low","job_id":"deadbeef"} tail`))
		f.Add([]byte(`{"graph":` + g + `,"Graph":` + g + `}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		stream := func(v any) func([]byte) error {
			return func(data []byte) error { return json.NewDecoder(bytes.NewReader(data)).Decode(v) }
		}
		var chat, chatWant ChatRequest
		got, gotErr := decodeUpload(body, stream(&chat), &chat.Graph)
		want, wantErr := decodeUploadOracle(body, stream(&chatWant), &chatWant.Graph)
		if err := sameUpload(got, gotErr, want, wantErr); err != nil {
			t.Fatalf("chat: %v\nbody: %q", err, body)
		}
		if gotErr == nil && chat.Question != chatWant.Question {
			t.Fatalf("chat question %q, oracle %q\nbody: %q", chat.Question, chatWant.Question, body)
		}

		var job, jobWant JobRequest
		got, gotErr = decodeUpload(body, stream(&job), &job.Graph)
		want, wantErr = decodeUploadOracle(body, stream(&jobWant), &jobWant.Graph)
		if err := sameUpload(got, gotErr, want, wantErr); err != nil {
			t.Fatalf("job: %v\nbody: %q", err, body)
		}
		job.Graph, jobWant.Graph = nil, nil
		if gotErr == nil && !reflect.DeepEqual(job, jobWant) {
			t.Fatalf("job request %+v, oracle %+v\nbody: %q", job, jobWant, body)
		}

		var place uploadBody
		want, wantErr = decodeUploadOracle(body, func(data []byte) error { return json.Unmarshal(data, &place) }, &place.Graph)
		wantKey := ""
		if wantErr == nil && want.g != nil {
			wantKey = want.g.ContentHash().String()
		}
		if key, ok := UploadContentKey(body); key != wantKey || ok != (wantKey != "") {
			t.Fatalf("UploadContentKey %q %v, oracle %q\nbody: %q", key, ok, wantKey, body)
		}
	})
}
