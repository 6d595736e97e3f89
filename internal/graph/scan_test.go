package graph

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestScanWireAcceptSet pins both sides of the scanner's line: the payloads
// the serving path actually carries must be taken by the scanner (a scanner
// that declined everything would still pass every differential test), and
// the spellings whose meaning belongs to encoding/json must be declined.
// Either way the result is checked against the oracle.
func TestScanWireAcceptSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var accept []string
	for _, g := range []*Graph{
		PlantedCommunities(4, 50, .3, .02, rng),
		KnowledgeGraph(300, 900, rng),
		Molecule(30, rng),
		BarabasiAlbert(40, 2, rng),
		NewDirected(),
		New(),
	} {
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		accept = append(accept, string(data))
	}
	accept = append(accept,
		`{}`, ` { } `, `{"nodes":[],"edges":[]}`,
		`{"edges":[{"to":1,"from":0,"weight":2.5e-3,"label":"r"}],"directed":true,"name":"g","nodes":[{"attrs":{"k":"v"},"label":"a","id":0},{"id":1}]}`,
		`{"name":"plain é 😀 €","nodes":[{"id":0,"label":"ü","attrs":{"ключ":"値","":""}},{"id":1}],"edges":[{"from":0,"to":1,"label":"→"}]}`,
		`{"nodes":[{"id":-0},{"id":-7},{"id":999999999999999999}],"edges":[{"from":-0,"to":-7,"weight":-0}]}`,
		" \t\r\n{ \"nodes\" : [ { \"id\" : 0 , \"label\" : \"a\" } , { \"id\" : 1 } ] , \"edges\" : [ { \"from\" : 0 , \"to\" : 1 } ] } \n",
		`{"nodes":[{"id":0,"attrs":{"k":"v","k":"w"}},{"id":1,"attrs":{}}]}`,
	)
	for _, in := range accept {
		if !scanWire([]byte(in), new(wire)) {
			t.Errorf("scanner declined %.80q", in)
		}
		checkAgainstOracle(t, []byte(in))
	}
	for _, in := range []string{
		`{"Nodes":[]}`, `{"nodes":[],"nodes":[]}`, `{"n\u006fdes":[]}`, "{\"nodeſ\":[]}", `{"nodes":[],"extra":1}`,
		`{"nodes":[{"id":0,"id":0}]}`, `{"nodes":[{"ID":0}]}`, `{"edges":[{"from":0,"from":0}]}`,
		`{"nodes":null}`, `{"name":null}`, `{"directed":null}`, `{"nodes":[null]}`, `{"nodes":[{"id":null}]}`, `{"nodes":[{"attrs":{"k":null}}]}`,
		`{"nodes":[{"id":1.0}]}`, `{"nodes":[{"id":1e2}]}`, `{"nodes":[{"id":1000000000000000000}]}`, `{"nodes":[{"id":01}]}`, `{"nodes":[{"id":"1"}]}`,
		`{"edges":[{"weight":1e999}]}`, `{"edges":[{"weight":1.}]}`, `{"edges":[{"weight":.5}]}`, `{"edges":[{"weight":+1}]}`, `{"edges":[{"weight":0x1p-2}]}`,
		// Strings that need unquoting or coercion are encoding/json's: an
		// escape in each place the scanner reads a string, invalid UTF-8.
		`{"name":"a\"b\\c\/d\b\f\n\r\t\u00e9\u20AC é","nodes":[{"id":0,"label":"\ud83d\ude00 😀 \ud83d \ude00","attrs":{"k":"v","":""}}]}`,
		"{\"nodes\":[{\"id\":0,\"label\":\"a\xffb\xe2\x82\"}]}",
		`{"name":"a\nb"}`, `{"nodes":[{"id":0,"label":"\u0041"}]}`, `{"nodes":[{"id":0,"attrs":{"\u006b":"v"}}]}`,
		`{"nodes":[{"id":0,"attrs":{"k":"a\/b"}}]}`, `{"nodes":[{"id":0},{"id":1}],"edges":[{"from":0,"to":1,"label":"\u0026"}]}`,
		"{\"nodes\":[{\"id\":0,\"label\":\"\xed\xa0\x80\"}]}",
		"{\"name\":\"raw\x01control\"}", `{"name":"bad \x escape"}`, `{"name":"quote \' escape"}`, `{"name":"short \u12"}`, `{"name":"open`,
		`{"nodes":[]} x`, `{"nodes":[],}`, `{"nodes":[{"id":0},]}`, `{"nodes":[}`, `null`, `[]`, ``,
	} {
		if scanWire([]byte(in), new(wire)) {
			t.Errorf("scanner took %q, which is encoding/json's to decide", in)
		}
		checkAgainstOracle(t, []byte(in))
	}
	for _, in := range scannerSeeds {
		checkAgainstOracle(t, []byte(in))
	}
}

// TestScanWireSharesStrings: repeated labels, attribute keys and attribute
// values within one parse are one string, not one allocation per use.
func TestScanWireSharesStrings(t *testing.T) {
	g, err := ParseJSON([]byte(`{"nodes":[{"id":0,"label":"C","attrs":{"type":"atom"}},{"id":1,"label":"C","attrs":{"type":"atom"}},{"id":2,"label":"C"}],
		"edges":[{"from":0,"to":1,"label":"bond"},{"from":1,"to":2,"label":"bond"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b string) bool { return a == b && unsafe.StringData(a) == unsafe.StringData(b) }
	n, e := g.Nodes(), g.Edges()
	if !same(n[0].Label, n[1].Label) || !same(n[0].Label, n[2].Label) || !same(e[0].Label, e[1].Label) || !same(n[0].Attrs["type"], n[1].Attrs["type"]) {
		t.Fatal("repeated strings were not shared within the parse")
	}
}

func TestSkipValue(t *testing.T) {
	for _, tc := range []struct {
		in  string
		end int
		ok  bool
	}{
		{`[]`, 2, true}, {`[ ]x`, 3, true}, {`{}`, 2, true}, {`[1, 2,3],`, 8, true}, {`[[],[1,2],{"a":[3,4]}]]`, 22, true},
		{`{"a":1,"b":[1,2,3]}}`, 19, true}, {`["a,b","]"]`, 11, true}, {`["a\"",1]`, 9, true}, {`{"k":"v"}`, 9, true},
		{`"s\\" 1`, 5, true}, {`123,`, 3, true}, {`null}`, 4, true}, {`true`, 4, true},
		{`[1,2`, 0, false}, {`"open`, 0, false}, {`["open]`, 0, false}, {``, 0, false}, {`,`, 0, false},
	} {
		end, ok := skipValue([]byte(tc.in), 0)
		if ok != tc.ok || (ok && end != tc.end) {
			t.Errorf("skipValue(%q) = %d, %v; want %d, %v", tc.in, end, ok, tc.end, tc.ok)
		}
	}
}

// memberSpanCases are TestMemberSpan's table; TestParseMember runs the same
// bodies.
var memberSpanCases = []struct {
	in, want string
	ok       bool
}{
	{`{"graph":{"a":[1,2]},"q":"x"}`, `{"a":[1,2]}`, true},
	{" {\n\"q\" : \"graph\" , \"graph\" :\t[1, 2] } trailing", `[1, 2]`, true},
	{`{"q":{"graph":1},"graph":null}`, `null`, true},
	{`{"graph":"}"}`, `"}"`, true},
	{`{"graph":1,"graph":2}`, ``, false},
	{`{"graph":1,"Graph":2}`, ``, false},
	{`{"GRAPH":1}`, ``, false},
	{`{"gr\u0061ph":1}`, ``, false},
	{`{"q":"x"}`, ``, false},
	{"{\"graph\":1,\"gräph\":2}", ``, false},
	{`{"graph":1`, ``, false},
	{`{"graph":}`, ``, false},
	{`[{"graph":1}]`, ``, false},
	{`{}`, ``, false},
	{``, ``, false},
}

func TestMemberSpan(t *testing.T) {
	for _, tc := range memberSpanCases {
		lo, hi, ok := MemberSpan([]byte(tc.in), "graph")
		if ok != tc.ok || (ok && tc.in[lo:hi] != tc.want) {
			t.Errorf("MemberSpan(%q) = %q, %v; want %q, %v", tc.in, tc.in[lo:hi], ok, tc.want, tc.ok)
		}
	}
	// Nesting depth costs the skipper a counter, not stack.
	big := `{"graph":` + strings.Repeat("[", 1<<16) + strings.Repeat("]", 1<<16) + `}`
	if lo, hi, ok := MemberSpan([]byte(big), "graph"); !ok || hi-lo != 2<<16 {
		t.Fatalf("deeply nested value: span %d:%d ok=%v", lo, hi, ok)
	}
}

// MemberSpan is the envelope walk the upload path made before ParseMember
// fused it with the graph decode, kept as ParseMember's oracle: it locates
// the value of the member named key in the JSON object data holds, answering
// only when it is sure which member encoding/json would bind to a field
// tagged key — every top-level key is plainly spelled ASCII, exactly one is
// key itself, and no other folds to it. data[lo:hi] is then the value,
// without surrounding whitespace. Nothing is validated; the object may be
// followed by anything.
func MemberSpan(data []byte, key string) (lo, hi int, ok bool) {
	s := wireScanner{data: data}
	s.ws()
	more, ok := s.open('{', '}')
	found := false
	for more && ok {
		k, kok := s.key()
		if !kok {
			return 0, 0, false
		}
		end, vok := skipValue(data, s.i)
		if !vok {
			return 0, 0, false
		}
		switch {
		case string(k) == key:
			if found {
				return 0, 0, false
			}
			found, lo, hi = true, s.i, end
		case bytes.EqualFold(k, []byte(key)):
			return 0, 0, false // k is ASCII, so this is encoding/json's fold
		}
		s.i = end
		more, ok = s.next('}')
	}
	return lo, hi, ok && found
}

// checkParseMember holds ParseMember to its oracle on one body: MemberSpan
// for the span, and an answer exactly where MemberSpan answers and the
// scanner takes that span; ParseJSON on the span for the graph.
func checkParseMember(t *testing.T, body []byte) {
	t.Helper()
	m, ok := ParseMember(body, "graph")
	lo, hi, wantOK := MemberSpan(body, "graph")
	wantOK = wantOK && scanWire(body[lo:hi], new(wire))
	if ok != wantOK || ok && (m.Lo != lo || m.Hi != hi) {
		t.Fatalf("ParseMember = %d:%d %v, MemberSpan %d:%d %v\nbody: %q", m.Lo, m.Hi, ok, lo, hi, wantOK, body)
	}
	if !ok {
		return
	}
	want, werr := ParseJSON(body[lo:hi])
	if fmt.Sprint(m.Err) != fmt.Sprint(werr) {
		t.Fatalf("graph error %v, ParseJSON %v\nbody: %q", m.Err, werr, body)
	}
	var syntax *json.SyntaxError
	if errors.As(m.Err, &syntax) {
		t.Fatalf("graph error %v is a syntax error, but the scanner took the graph\nbody: %q", m.Err, body)
	}
	if (m.Graph == nil) != (want == nil) {
		t.Fatalf("graph present %v, ParseJSON %v\nbody: %q", m.Graph != nil, want != nil, body)
	}
	if want == nil {
		return
	}
	if err := graphsEquivalent(m.Graph, want); err != nil || m.Graph.Version() != want.Version() {
		t.Fatalf("graph differs from ParseJSON's (%v; versions %d, %d)\nbody: %q", err, m.Graph.Version(), want.Version(), body)
	}
	if cap(m.Graph.Nodes()) != m.Graph.NumNodes() || cap(m.Graph.Edges()) != m.Graph.NumEdges() {
		t.Fatalf("slabs are not exact-size\nbody: %q", body)
	}
}

// TestParseMember: the fused walk answers as MemberSpan + scanWire +
// ParseJSON do, on TestMemberSpan's bodies and on envelopes around every
// graph the scanner tests use — the graph first, last and in the middle; a
// second graph or Graph member after one the scanner took; a graph the
// scanner declines halfway, followed by more members; a body cut inside the
// graph.
func TestParseMember(t *testing.T) {
	for _, tc := range memberSpanCases {
		checkParseMember(t, []byte(tc.in))
	}
	rng := rand.New(rand.NewSource(5))
	graphs := []string{`{}`, `null`, `[1,2]`, `"g"`, `{"nodes":[{"id":7}],"edges":[{"from":7,"to":7}]}`,
		`{"nodes":[{"id":0,"label":"a"},{"id":1}],"edges":[{"from":0,"to":1,"label":"r","weight":2}]}`,
		`{"nodes":[{"id":0},{"id":1}],"edges":[{"from":0,"to":1}],"x":1}`,
		`{"nodes":[{"id":0,"label":"a\u00e9"},{"id":1}],"edges":[{"from":0,"to":1}]}`,
		`{"nodes":[{"id":01}]}`, `{"nodes":[{"id":0}],"nodes":[{"id":1}]}`}
	for _, g := range []*Graph{KnowledgeGraph(30, 60, rng), PlantedCommunities(2, 10, .5, .1, rng), Molecule(12, rng)} {
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, string(data))
	}
	graphs = append(graphs, scannerSeeds...)
	for _, g := range graphs {
		for _, body := range []string{
			`{"graph":` + g + `}`,
			`{"question":"q","graph":` + g + `}`,
			`{"graph":` + g + `,"question":"q","x":[{"graph":1}]}`,
			` { "a" : 1 , "graph" : ` + g + ` , "b" : "}" } trailing`,
			`{"graph":` + g + `,"graph":` + g + `}`,
			`{"graph":` + g + `,"Graph":{}}`,
			`{"graph":` + g + `,"q":"x"`,
			`{"graph":` + g + `,}`,
			`{"q":1,"graph":` + g[:len(g)/2],
		} {
			checkParseMember(t, []byte(body))
		}
	}
}

// TestConcurrentParsesShareNoScratch: parses running at once lease their
// own scratch slabs from the pool, and no graph keeps pointing into one —
// each result stays equal to a parse made alone, after the others reused
// the scratch.
func TestConcurrentParsesShareNoScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var bodies [][]byte
	var want []*Graph
	for _, g := range []*Graph{KnowledgeGraph(60, 150, rng), PlantedCommunities(3, 20, .4, .05, rng), Molecule(25, rng), BarabasiAlbert(50, 2, rng)} {
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		alone, err := ParseJSON(data)
		if err != nil {
			t.Fatal(err)
		}
		bodies, want = append(bodies, data), append(want, alone)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var kept []*Graph
			for i := 0; i < 40; i++ {
				g, err := ParseJSON(bodies[(w+i)%len(bodies)])
				if err != nil {
					errs <- err
					return
				}
				kept = append(kept, g)
			}
			for i, g := range kept {
				if err := graphsEquivalent(g, want[(w+i)%len(bodies)]); err != nil {
					errs <- fmt.Errorf("worker %d parse %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
