package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"chatgraph/internal/graph"
)

// This file is the one road an uploaded graph takes into the server — from a
// chat, a job submission, or the router's placement key: body bytes →
// envelope → parsed graph → interned instance. The envelope is a few dozen
// bytes around a graph of tens of kilobytes, so one walk over the body
// (graph.ParseMember) finds the graph member and decodes it where it lies,
// straight into the slabs the graph keeps, and only what is left goes
// through encoding/json. Like the graph scanner underneath, the fast road
// either understands a body completely or declines, and a declined body
// takes the encoding/json road on the same bytes — which is therefore what
// defines every result and every error text.

// maxUploadBody caps a chat or job submission body (question + graph).
const maxUploadBody = 8 << 20

// maxBodyPresize bounds what a Content-Length header can make the server
// reserve before any byte has arrived: a lying header costs at most this per
// in-flight request, not maxUploadBody.
const maxBodyPresize = 1 << 20

// upload is the graph member of a decoded chat or job body.
type upload struct {
	// g is the parsed graph: nil when the body had no graph member, or when
	// err is set.
	g *graph.Graph
	// err is the graph's own parse failure. It is carried rather than
	// returned because it ranks below the envelope's field checks (an empty
	// question, a bad priority) and the handlers report it in that order.
	err error
}

// readUpload reads a chat or job body whole, under the maxUploadBody cap,
// and decodes it: the envelope into req — a *ChatRequest or *JobRequest whose
// graph member is raw — and the graph into the returned upload. The error is
// the envelope's ("decode request: …").
func readUpload(w http.ResponseWriter, r *http.Request, req any, raw *json.RawMessage) (upload, error) {
	size := r.ContentLength
	if size < 0 {
		size = 4 << 10 // no Content-Length: start small and grow
	}
	buf := bytes.NewBuffer(make([]byte, 0, min(size, maxBodyPresize)+bytes.MinRead))
	_, readErr := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxUploadBody))
	return decodeUpload(buf.Bytes(), func(data []byte) error {
		// A body cut short (over the cap, client gone) decodes exactly as it
		// did when the Decoder read the socket itself: what arrived, then
		// the read error — which it only meets if the value is incomplete.
		var rd io.Reader = bytes.NewReader(data)
		if readErr != nil {
			rd = io.MultiReader(rd, failedReader{readErr})
		}
		return json.NewDecoder(rd).Decode(req)
	}, raw)
}

// failedReader replays the error a body read ended with.
type failedReader struct{ err error }

func (f failedReader) Read([]byte) (int, error) { return 0, f.err }

// decodeUpload decodes one upload body. decode is the caller's encoding/json
// call into its request struct, whose graph member is raw; it defines what a
// valid envelope is (a Decoder ignores bytes after the object, Unmarshal
// does not).
//
// Fast road: graph.ParseMember walks the body once, decoding its single
// "graph" member where it lies as the walk reaches it (or, for a graph the
// scanner declines, through encoding/json on that member's bytes), and
// decode sees the envelope with null in the graph's place. It is taken only
// when that provably changes nothing: ParseMember is sure which member binds
// to the field, the graph's bytes are syntactically valid (so any syntax
// error is still reported against the whole request, as "decode request"),
// and decode accepts the rest. Otherwise decode runs on the whole body and
// the graph is parsed from raw, as it always was.
func decodeUpload(body []byte, decode func([]byte) error, raw *json.RawMessage) (upload, error) {
	if m, ok := graph.ParseMember(body, "graph"); ok {
		var syntax *json.SyntaxError
		if !errors.As(m.Err, &syntax) {
			rest := make([]byte, 0, m.Lo+len("null")+len(body)-m.Hi)
			rest = append(append(append(rest, body[:m.Lo]...), "null"...), body[m.Hi:]...)
			if decode(rest) == nil {
				*raw = nil
				return upload{g: m.Graph, err: m.Err}, nil
			}
		}
	}
	if err := decode(body); err != nil {
		return upload{}, err
	}
	if len(*raw) == 0 {
		return upload{}, nil
	}
	g, err := graph.ParseJSON(*raw)
	return upload{g: g, err: err}, nil
}

// internUpload takes a decoded upload the rest of the way: 400 on a bad
// graph (written here), intern through the engine's graph store. A payload
// whose content was seen before — in this session, another session, or a
// deleted one — resolves to the one shared instance, so the CSR, stats memo,
// and invoke-cache entries built for it are reused instead of rebuilt.
// Chains that edit the graph get a private clone inside the executor, so
// sharing is invisible to callers. A body without a graph is nil, ok. The
// graph is never persisted: no transcript or job result refers to it.
func (s *Server) internUpload(w http.ResponseWriter, r *http.Request, up upload) (g *graph.Graph, ok bool) {
	if up.err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Sprintf("bad graph: %v", up.err))
		return nil, false
	}
	if up.g == nil {
		return nil, true
	}
	return s.eng.Graphs().Intern(up.g), true
}
