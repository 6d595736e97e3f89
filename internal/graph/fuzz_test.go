package graph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// fuzzSeedCorpus seeds both fuzz targets with the wire forms of the
// fixture generators (one per demonstration scenario) plus handwritten
// payloads covering sparse IDs, attrs, parallel edges, weights, and a few
// malformed bodies the parser must reject cleanly.
func fuzzSeedCorpus(f *testing.F) {
	f.Helper()
	rng := rand.New(rand.NewSource(11))
	for _, g := range []*Graph{
		PlantedCommunities(2, 4, 0.8, 0.2, rng),
		Molecule(9, rng),
		KnowledgeGraph(6, 10, rng),
		BarabasiAlbert(8, 2, rng),
		ErdosRenyi(24, 0.3, rng),
		New(),
	} {
		data, err := json.Marshal(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{
		`{}`,
		`{"nodes":null,"edges":null}`,
		`{"nodes":[{"id":5,"label":"a","attrs":{"k":"v","k2":"w"}},{"id":9}],"edges":[{"from":5,"to":9,"weight":2.5,"label":"rel"}]}`,
		`{"name":"g","directed":true,"nodes":[{"id":0},{"id":1}],"edges":[{"from":0,"to":1},{"from":0,"to":1,"label":"x"},{"from":1,"to":0,"weight":-3}]}`,
		`{"nodes":[{"id":0},{"id":0}],"edges":[]}`,
		`{"nodes":[{"id":0}],"edges":[{"from":0,"to":7}]}`,
		`{"nodes":[{"id":1}],"edges":[{"from":1,"to":1}]}`,
		`not json`,
		// Bulk-loader edge cases: IDs dense but out of order (remap path),
		// a gap forcing remap, negative endpoints on the dense fast path,
		// and a directed payload exercising the carved reverse adjacency.
		`{"nodes":[{"id":1},{"id":0}],"edges":[{"from":0,"to":1}]}`,
		`{"nodes":[{"id":0},{"id":2}],"edges":[{"from":0,"to":2}]}`,
		`{"nodes":[{"id":0},{"id":1}],"edges":[{"from":-1,"to":1}]}`,
		`{"directed":true,"nodes":[{"id":0},{"id":1},{"id":2}],"edges":[{"from":2,"to":0},{"from":2,"to":1},{"from":0,"to":1}]}`,
	} {
		f.Add([]byte(s))
	}
	for _, s := range scannerSeeds {
		f.Add([]byte(s))
	}
	for _, s := range attrShareSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte(manyAttrsBody(2*attrSeenSize + 1)))
}

// attrShareSeeds aim at the scanner's per-parse table of attrs objects:
// repeats that share a map, objects that decode equal but are spelled
// differently (an escape, inner whitespace), an object that merely starts
// like a remembered one, and a remembered object followed by a syntax error.
var attrShareSeeds = []string{
	`{"nodes":[{"id":0,"attrs":{"t":"p"}},{"id":1,"attrs":{"t":"p"}},{"id":2,"attrs":{"t":"p"}}],"edges":[{"from":0,"to":1},{"from":1,"to":2}]}`,
	`{"nodes":[{"id":0,"attrs":{"a":"b"}},{"id":1,"attrs":{"\u0061":"b"}},{"id":2,"attrs":{ "a" : "b" }},{"id":3,"attrs":{"a":"b"}}],"edges":[]}`,
	`{"nodes":[{"id":0,"attrs":{"a":"b"}},{"id":1,"attrs":{"a":"b","c":"d"}},{"id":2,"attrs":{"a":"b","a":"c"}},{"id":3,"attrs":{"a":"b"}}],"edges":[]}`,
	`{"nodes":[{"id":0,"attrs":{"a":"b"}},{"id":1,"attrs":{"a":"b"}x}],"edges":[]}`,
	`{"nodes":[{"id":0,"attrs":{}},{"id":1,"attrs":{}},{"id":2,"attrs":{"":""}},{"id":3,"attrs":{"":""}}]}`,
}

// scannerSeeds aim at the line between what the schema scanner decodes
// itself and what it hands back to encoding/json: string escapes, surrogate
// pairs, invalid UTF-8, number spellings an int or a float64 field does and
// does not take, and every spelling of a key that still names a field.
var scannerSeeds = []string{
	`{"name":"a\"b\\c\/d\b\f\n\r\t\u00e9\u20AC","nodes":[{"id":0,"label":"\ud83d\ude00","attrs":{"\u006b":"\u0076"}}],"edges":[]}`,
	`{"nodes":[{"id":0,"label":"\ud83d"},{"id":1,"label":"\ude00\ud83d"},{"id":2,"label":"\ud83d\u0041"},{"id":3,"label":"\ud83dx"}],"edges":[]}`,
	"{\"nodes\":[{\"id\":0,\"label\":\"a\xffb\xe2\x82\"},{\"id\":1,\"label\":\"\xf0\x9f\x98\x80\xc3\"}],\"edges\":[]}",
	"{\"name\":\"raw\x01control\"}",
	"{\"name\":\"\u00e9\u4e16\ufffd\"}",
	`{"name":"bad \x escape"}`, `{"name":"short \u12"}`, `{"name":"quote \' escape"}`, `{"name":"unterminated`,
	`{"nodes":[{"id":1e2}]}`, `{"nodes":[{"id":1.0}]}`, `{"nodes":[{"id":-0},{"id":-7}],"edges":[{"from":-0,"to":-7}]}`,
	`{"nodes":[{"id":01}]}`, `{"nodes":[{"id":-}]}`, `{"nodes":[{"id":+1}]}`, `{"nodes":[{"id":"1"}]}`,
	`{"nodes":[{"id":999999999999999999},{"id":1000000000000000000}]}`,
	`{"nodes":[{"id":9223372036854775807}]}`, `{"nodes":[{"id":9223372036854775808}]}`, `{"nodes":[{"id":-9223372036854775808}]}`,
	`{"nodes":[{"id":0},{"id":1}],"edges":[{"from":0,"to":1,"weight":-0},{"from":0,"to":1,"weight":-0.0},{"from":0,"to":1,"weight":0e0},{"from":1,"to":0,"weight":1E+2},{"from":1,"to":0,"weight":2.5e-3},{"from":1,"to":0,"weight":12345678901234567890}]}`,
	`{"nodes":[{"id":0},{"id":1}],"edges":[{"from":0,"to":1,"weight":0.1},{"from":0,"to":1,"weight":123456789012345.6},{"from":0,"to":1,"weight":4.9e-324},{"from":0,"to":1,"weight":1e-400}]}`,
	`{"edges":[{"weight":1e999}]}`, `{"edges":[{"weight":1.}]}`, `{"edges":[{"weight":.5}]}`, `{"edges":[{"weight":1e}]}`, `{"edges":[{"weight":0x10}]}`, `{"edges":[{"weight":01.5}]}`, `{"edges":[{"weight":Infinity}]}`, `{"edges":[{"weight":"1"}]}`,
	`{"Nodes":[{"ID":4}],"EDGES":[]}`, `{"nodes":[{"id":1,"id":2}]}`, `{"nodes":[{"id":1}],"nodes":[{"id":2}]}`, `{"n\u006fdes":[{"id":3}]}`, "{\"node\u017f\":[{\"id\":3}]}", "{\"nodes\":[{\"\u212aey\":1}]}",
	`{"nodes":[{"id":0,"attrs":{"k":"v","k":"w","":""}}]}`, `{"nodes":[{"id":0,"attrs":{}}]}`, `{"nodes":[{"id":0,"attrs":null}]}`, `{"nodes":[{"id":0,"attrs":{"k":null}}]}`, `{"nodes":[{"id":0,"attrs":{"k":1}}]}`, `{"nodes":[{"id":0,"label":null}]}`,
	`{"name":null,"directed":null}`, `{"directed":"true"}`, `{"directed":truex}`, `{"directed":tru`, `null`, `[]`, `"g"`, `7`, ``, ` `,
	" \t\r\n{ \"nodes\" : [ { \"id\" : 0 , \"label\" : \"a\" } , { \"id\" : 1 } ] , \"edges\" : [ { \"from\" : 0 , \"to\" : 1 } ] } \n",
	`{"nodes":[{"id":0}],"edges":[]} x`, `{"nodes":[{"id":0}],"edges":[]}{}`, `{"nodes":[{"id":0},],"edges":[]}`, `{"nodes":[{"id":0}],}`, `{"nodes":[{"id":0}]"edges":[]}`, `{"nodes":[{"id":0}}`, `{"nodes":[{"id":0]]}`,
	`{"nodes":[{"id":0}],"x":` + strings.Repeat("[", 40) + `{"y":[{"z":"]}"}]}` + strings.Repeat("]", 40) + `}`,
	`{"x":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`,
	`{"nodes":[0,0,0],"edges":[{},{}]}`, `{"nodes":[{},{}]}`, `{"nodes":{},"edges":""}`,
}

// graphsEquivalent compares two graphs field by field (nil and empty attr
// maps are the same thing on the wire).
func graphsEquivalent(a, b *Graph) error {
	if a.Name != b.Name {
		return fmt.Errorf("name %q != %q", a.Name, b.Name)
	}
	if a.Directed() != b.Directed() {
		return fmt.Errorf("directed %v != %v", a.Directed(), b.Directed())
	}
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("size (%d,%d) != (%d,%d)", a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	for i := 0; i < a.NumNodes(); i++ {
		na, nb := a.Node(NodeID(i)), b.Node(NodeID(i))
		if na.Label != nb.Label {
			return fmt.Errorf("node %d label %q != %q", i, na.Label, nb.Label)
		}
		if len(na.Attrs) != len(nb.Attrs) || (len(na.Attrs) > 0 && !reflect.DeepEqual(na.Attrs, nb.Attrs)) {
			return fmt.Errorf("node %d attrs %v != %v", i, na.Attrs, nb.Attrs)
		}
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			return fmt.Errorf("edge %d %+v != %+v", i, ea[i], eb[i])
		}
	}
	return nil
}

// parseJSONOracle is ParseJSON as it was before the schema scanner existed —
// encoding/json into jsonGraph, then loadWire — and stays the reference the
// scanner is held to.
func parseJSONOracle(data []byte) (*Graph, error) {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	g := New()
	g.Name, g.directed = jg.Name, jg.Directed
	g.bump()
	if err := g.loadWire(&jg); err != nil {
		return nil, err
	}
	return g, nil
}

// checkAgainstOracle holds ParseJSON to the oracle on one input: the same
// accept/reject decision, error text, graph and version — and, where the
// scanner took the input itself, a jsonGraph identical to encoding/json's
// down to nil-versus-empty and the sign of a zero weight.
func checkAgainstOracle(t *testing.T, data []byte) (*Graph, error) {
	t.Helper()
	g, err := ParseJSON(data)
	og, oerr := parseJSONOracle(data)
	switch {
	case (err == nil) != (oerr == nil):
		t.Fatalf("ParseJSON err = %v, oracle err = %v\ninput: %q", err, oerr, data)
	case err != nil:
		if err.Error() != oerr.Error() {
			t.Fatalf("error text %q, oracle %q\ninput: %q", err, oerr, data)
		}
	default:
		if derr := graphsEquivalent(g, og); derr != nil {
			t.Fatalf("graph differs from the oracle's: %v\ninput: %q", derr, data)
		}
		if g.Version() != og.Version() {
			t.Fatalf("version %d, oracle %d\ninput: %q", g.Version(), og.Version(), data)
		}
	}
	var sj, oj jsonGraph
	if scanWire(data, &sj) {
		if uerr := json.Unmarshal(data, &oj); uerr != nil {
			t.Fatalf("scanner accepted what encoding/json rejects: %v\ninput: %q", uerr, data)
		}
		if !reflect.DeepEqual(sj, oj) {
			t.Fatalf("scanner decoded %+v, encoding/json %+v\ninput: %q", sj, oj, data)
		}
		for i := range sj.Edges {
			if math.Float64bits(sj.Edges[i].Weight) != math.Float64bits(oj.Edges[i].Weight) {
				t.Fatalf("edge %d weight bits differ: %v vs %v\ninput: %q", i, sj.Edges[i].Weight, oj.Edges[i].Weight, data)
			}
		}
	}
	return g, err
}

// FuzzParseJSON: ParseJSON must agree with the encoding/json-only oracle on
// every input, and for any input the parser accepts, parse → serialize →
// reparse must never panic, must re-accept its own output, must reproduce
// the graph exactly, and must serialize stably.
func FuzzParseJSON(f *testing.F) {
	fuzzSeedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := checkAgainstOracle(t, data)
		if err != nil {
			return // rejected inputs just need to not panic
		}
		out, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("serialize parsed graph: %v", err)
		}
		g2, err := ParseJSON(out)
		if err != nil {
			t.Fatalf("reparse of own serialization failed: %v\nserialized: %s", err, out)
		}
		if err := graphsEquivalent(g, g2); err != nil {
			t.Fatalf("round trip changed the graph: %v\ninput: %s\nserialized: %s", err, data, out)
		}
		out2, err := json.Marshal(g2)
		if err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("serialization unstable:\n%s\n%s", out, out2)
		}
		// Attribute maps are read-only values nodes may share: setting one
		// node's attribute leaves every other node as parsed (g2 is a
		// separate parse, so it shares no map with g).
		if g.NumNodes() > 0 {
			g.SetNodeAttr(0, "\x00probe", "set")
			want := map[string]string{"\x00probe": "set"}
			for k, v := range g2.Node(0).Attrs {
				if k != "\x00probe" {
					want[k] = v
				}
			}
			if !reflect.DeepEqual(g.Node(0).Attrs, want) {
				t.Fatalf("SetNodeAttr on node 0: attrs %v, want %v", g.Node(0).Attrs, want)
			}
			for i := 1; i < g.NumNodes(); i++ {
				if a, b := g.Node(NodeID(i)).Attrs, g2.Node(NodeID(i)).Attrs; len(a) != len(b) || len(a) > 0 && !reflect.DeepEqual(a, b) {
					t.Fatalf("SetNodeAttr on node 0 changed node %d: %v, parsed %v\ninput: %q", i, a, b, data)
				}
			}
		}
	})
}

// FuzzContentHash: a graph and its serialization round trip (which
// preserves index order) must agree on identity — the property the
// interning layer and the content-keyed invocation cache stand on.
func FuzzContentHash(f *testing.F) {
	fuzzSeedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseJSON(data)
		if err != nil {
			return
		}
		h := g.ContentHash()
		if h != g.ContentHash() {
			t.Fatal("ContentHash not deterministic on one instance")
		}
		out, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("serialize: %v", err)
		}
		g2, err := ParseJSON(out)
		if err != nil {
			t.Fatalf("reparse: %v\nserialized: %s", err, out)
		}
		if g2.ContentHash() != h {
			t.Fatalf("hash of round trip %s != %s\ninput: %s\nserialized: %s", g2.ContentHash(), h, data, out)
		}
		if g2.Version() != g.Version() {
			t.Fatalf("round-trip versions diverge: %d != %d", g2.Version(), g.Version())
		}
	})
}
