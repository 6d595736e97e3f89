package graph

import (
	"encoding/json"
	"math/rand"
	"strings"
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
		`{"name":"a\"b\\c\/d\b\f\n\r\t\u00e9\u20AC é","nodes":[{"id":0,"label":"\ud83d\ude00 😀 \ud83d \ude00","attrs":{"k":"v","":""}}]}`,
		"{\"nodes\":[{\"id\":0,\"label\":\"a\xffb\xe2\x82\"}]}",
		`{"nodes":[{"id":-0},{"id":-7},{"id":999999999999999999}],"edges":[{"from":-0,"to":-7,"weight":-0}]}`,
		" \t\r\n{ \"nodes\" : [ { \"id\" : 0 , \"label\" : \"a\" } , { \"id\" : 1 } ] , \"edges\" : [ { \"from\" : 0 , \"to\" : 1 } ] } \n",
		`{"nodes":[{"id":0,"attrs":{"k":"v","k":"w"}},{"id":1,"attrs":{}}]}`,
	)
	for _, in := range accept {
		if !scanWire([]byte(in), new(jsonGraph)) {
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
		"{\"name\":\"raw\x01control\"}", `{"name":"bad \x escape"}`, `{"name":"quote \' escape"}`, `{"name":"short \u12"}`, `{"name":"open`,
		`{"nodes":[]} x`, `{"nodes":[],}`, `{"nodes":[{"id":0},]}`, `{"nodes":[}`, `null`, `[]`, ``,
	} {
		if scanWire([]byte(in), new(jsonGraph)) {
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

func TestMemberSpan(t *testing.T) {
	for _, tc := range []struct {
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
	} {
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
