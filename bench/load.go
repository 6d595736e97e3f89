package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"chatgraph/internal/apis"
	"chatgraph/internal/chain"
	"chatgraph/internal/server"
)

// clients is both the number of load-generating goroutines and the number of
// keep-alive connections: nproc on the 2-core reference box, so generator
// and daemon are not fighting a scheduler queue of the generator's making.
const clients = 2

// outcome is what one executed op looked like from the client.
type outcome struct {
	ok bool
	// why names the failure (transport, status, or which check) when !ok.
	why   string
	reqID string
	// sent/done bracket the whole op (for a job: submit through the end of
	// its event stream).
	sent, done time.Time
	// firstEvent is when the first NDJSON line arrived (streamed ops).
	firstEvent time.Time
}

// loadClient drives one daemon. Each client goroutine owns one session (a
// conversation serializes its own chats) and, on a multi-tenant daemon, one
// API key.
type loadClient struct {
	base     string
	hc       *http.Client
	sessions [clients]string
	keys     [clients]string
	check    *checker
}

func newLoadClient(base string, w workload, reg *apis.Registry) (*loadClient, error) {
	c := &loadClient{
		base:  base,
		check: newChecker(reg),
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
		}},
	}
	for i := range c.sessions {
		if w.tenants {
			c.keys[i] = tenantKeys[i]
		}
		resp, err := c.post(i, "/v1/sessions", nil)
		if err != nil {
			return nil, fmt.Errorf("create session: %w", err)
		}
		var info server.SessionInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated {
			return nil, fmt.Errorf("create session: status %d, decode: %v", resp.StatusCode, err)
		}
		c.sessions[i] = info.SessionID
	}
	return c, nil
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

func (c *loadClient) request(client int, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if k := c.keys[client]; k != "" {
		req.Header.Set(server.APIKeyHeader, k)
	}
	return c.hc.Do(req)
}

func (c *loadClient) post(client int, path string, body []byte) (*http.Response, error) {
	return c.request(client, http.MethodPost, path, body)
}

// scrape fetches /metrics over the load connections (between phases, when
// they are idle).
func (c *loadClient) scrape() (scrape, error) {
	resp, err := c.request(0, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseScrape(resp.Body)
}

// do executes one op on behalf of client and checks the reply.
func (c *loadClient) do(client int, o *op) outcome {
	out := outcome{sent: time.Now()}
	var resp *http.Response
	var err error
	switch o.kind {
	case opChat:
		resp, err = c.post(client, "/v1/sessions/"+c.sessions[client]+"/chat", o.body)
	case opChatStream:
		resp, err = c.post(client, "/v1/sessions/"+c.sessions[client]+"/chat?stream=1", o.body)
	case opRetrieve:
		resp, err = c.post(client, "/v1/retrieve", o.body)
	case opJob:
		resp, err = c.post(client, "/v1/jobs", o.body)
		if err == nil && resp.StatusCode == http.StatusAccepted {
			// The submit reply only names the job; the op's answer is the
			// last line of its event stream.
			var info server.JobInfo
			err = json.NewDecoder(resp.Body).Decode(&info)
			resp.Body.Close()
			if err == nil {
				resp, err = c.request(client, http.MethodGet, "/v1/jobs/"+info.JobID+"?stream=1", nil)
			}
		}
	}
	if err != nil {
		out.done, out.why = time.Now(), "transport: "+err.Error()
		return out
	}
	defer resp.Body.Close()
	out.reqID = resp.Header.Get("X-Request-ID")
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for keep-alive only
		out.done, out.why = time.Now(), fmt.Sprintf("status %d", resp.StatusCode)
		return out
	}
	_, out.firstEvent, err = c.check.read(o, resp.Body)
	out.done = time.Now()
	if err != nil {
		out.why = err.Error()
		return out
	}
	out.ok = true
	return out
}

// reply is the part of a chat or job answer the oracle compares.
type reply struct{ chain, answer string }

// read decodes the 2xx body of op o — one JSON document, or for streamed
// ops an NDJSON event stream — and checks it. firstEvent is when a stream's
// first line arrived.
func (k *checker) read(o *op, body io.Reader) (r reply, firstEvent time.Time, err error) {
	switch o.kind {
	case opRetrieve:
		var rr server.RetrieveResponse
		if err = json.NewDecoder(body).Decode(&rr); err == nil {
			err = k.retrieve(o, &rr)
		}
		return r, firstEvent, err
	case opChat:
		var cr server.ChatResponse
		if err = json.NewDecoder(body).Decode(&cr); err == nil {
			err = k.chat(o, &cr)
		}
		return reply{cr.Chain, cr.Answer}, firstEvent, err
	default:
		var cr *server.ChatResponse
		if cr, firstEvent, err = readStream(body); err != nil {
			return r, firstEvent, err
		}
		return reply{cr.Chain, cr.Answer}, firstEvent, k.chat(o, cr)
	}
}

// readStream consumes a chat or job NDJSON stream: event lines, then one
// "result" (or "error") line.
func readStream(r io.Reader) (res *server.ChatResponse, firstEvent time.Time, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	var last []byte
	for sc.Scan() {
		if firstEvent.IsZero() {
			firstEvent = time.Now()
		}
		last = append(last[:0], sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		return nil, firstEvent, fmt.Errorf("stream: %w", err)
	}
	var line struct {
		Type   string              `json:"type"`
		Result server.ChatResponse `json:"result"`
		Error  string              `json:"error"`
	}
	if err := json.Unmarshal(last, &line); err != nil {
		return nil, firstEvent, fmt.Errorf("stream: last line %q: %w", last, err)
	}
	if line.Type != "result" {
		return nil, firstEvent, fmt.Errorf("stream ended with %s: %s", line.Type, line.Error)
	}
	return &line.Result, firstEvent, nil
}

// checker is the structural half of the correctness oracle; the expected
// chain/answer/hits it compares against are put on the ops by oracle.fill.
type checker struct {
	reg *apis.Registry
	mu  sync.Mutex
	// valid memoizes chain strings whose every step is a registered API.
	valid map[string]bool
}

func newChecker(reg *apis.Registry) *checker {
	return &checker{reg: reg, valid: map[string]bool{}}
}

func (k *checker) chainRegistered(text string) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	if ok, seen := k.valid[text]; seen {
		return ok
	}
	c, err := chain.Parse(text)
	ok := err == nil && len(c) > 0
	for _, s := range c {
		if _, found := k.reg.Get(s.API); !found {
			ok = false
		}
	}
	k.valid[text] = ok
	return ok
}

func (k *checker) chat(o *op, cr *server.ChatResponse) error {
	switch {
	case cr.Answer == "":
		return fmt.Errorf("empty answer")
	case cr.Kind != o.wantKind:
		return fmt.Errorf("kind %q, generator intended %q", cr.Kind, o.wantKind)
	case !k.chainRegistered(cr.Chain):
		return fmt.Errorf("chain %q has a step outside the registry", cr.Chain)
	}
	if w := o.wantChat; w != nil {
		if cr.Chain != w.chain {
			return fmt.Errorf("chain %q, in-process engine produced %q", cr.Chain, w.chain)
		}
		if cr.Answer != w.answer {
			return fmt.Errorf("answer differs from the in-process engine's (got %d bytes, want %d)", len(cr.Answer), len(w.answer))
		}
	}
	return nil
}

func (k *checker) retrieve(o *op, rr *server.RetrieveResponse) error {
	if len(rr.Results) != len(o.queries) {
		return fmt.Errorf("%d result lists for %d queries", len(rr.Results), len(o.queries))
	}
	for i, hits := range rr.Results {
		if len(hits) != retrieveK {
			return fmt.Errorf("query %d: %d hits, want %d", i, len(hits), retrieveK)
		}
		for j, h := range hits {
			if _, ok := k.reg.Get(h.Name); !ok {
				return fmt.Errorf("query %d: hit %q is not a registered API", i, h.Name)
			}
			if o.wantHits != nil && h != o.wantHits[i][j] {
				return fmt.Errorf("query %d hit %d: %s@%g, in-process engine produced %s@%g",
					i, j, h.Name, h.Distance, o.wantHits[i][j].Name, o.wantHits[i][j].Distance)
			}
		}
	}
	return nil
}

// sample is one executed op with its place in the phase's timeline, all as
// offsets from the phase start.
type sample struct {
	op *op
	// due is when the op was scheduled (paced) or picked up (closed loop).
	due, sent, done time.Duration
	// idle reports that the client was already waiting when the op came
	// due, so sent−due is the generator's own lateness, not backlog.
	idle bool
	out  outcome
}

// latencyMS is the op's latency from the instant it was due.
func (s sample) latencyMS() float64 { return ms(s.done - s.due) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

type doFunc func(client int, o *op) outcome

// sleepUntil returns at t, to within microseconds: it sleeps until shortly
// before t and polls the clock from there. The sleep is nanosleep(2) rather
// than time.Sleep because a goroutine timer is serviced from the runtime's
// epoll wait, whose timeout is rounded up to whole milliseconds. nanosleep
// overshoots too, by 0.1 ms after a short sleep and up to ~1 ms after a long
// one (deeper idle state), so the polling window is a sixteenth of the sleep
// within [0.2 ms, 1.5 ms]; gen.cpu_share reports what the polling costs.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	spin := min(max(d/16, 200*time.Microsecond), 1500*time.Microsecond)
	if d > spin {
		ts := syscall.NsecToTimespec(int64(d - spin))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake-up is absorbed by the poll below
	}
	for time.Now().Before(t) {
		runtime.Gosched() // let the connections' read loops run
	}
}

// runPaced sends ops on their schedule with at most `clients` outstanding.
// It is an open loop: an op's clock starts at its due time whether or not a
// client was free to send it, so a stall charges every op that came due
// during it.
func runPaced(ops []op, do doFunc) []sample {
	samples := make([]sample, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				o := &ops[i]
				wait := time.Until(start.Add(o.due))
				sleepUntil(start.Add(o.due))
				out := do(c, o)
				samples[i] = sample{
					op: o, due: o.due, idle: wait > 0, out: out,
					sent: out.sent.Sub(start), done: out.done.Sub(start),
				}
			}
		}(c)
	}
	wg.Wait()
	return samples
}

// runClosed runs ops back to back from `clients` goroutines for d (or until
// ops run out) and returns the samples in completion-independent op order
// plus the wall time the phase actually took.
func runClosed(ops []op, d time.Duration, do doFunc) ([]sample, time.Duration) {
	samples := make([]sample, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				out := do(c, &ops[i])
				samples[i] = sample{
					op: &ops[i], out: out,
					due: out.sent.Sub(start), sent: out.sent.Sub(start), done: out.done.Sub(start),
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	n := int(next.Load())
	if n > len(ops) {
		n = len(ops)
	}
	// Every claimed index was filled, and wg.Wait ordered those writes
	// before this read; indexes from n on were never claimed.
	return samples[:n], elapsed
}
