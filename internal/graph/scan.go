package graph

import (
	"bytes"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// A non-reflective decoder for the upload wire schema. Every chat and job
// carries its graph, and encoding/json walks those bytes four times
// (Decoder scan, RawMessage copy, checkValid, reflective decode); this
// scanner walks them once, straight into the Node and Edge slabs the graph
// keeps (in wire form until Graph.load validates and remaps them in place).
//
// The contract is one-sided: the scanner either decodes the value
// completely or declines, and a decline costs nothing but the fallback —
// the caller runs json.Unmarshal on the same bytes. It therefore only has
// to be right about what it accepts (accepts ⇒ the wire graph encoding/json
// would have produced), never about why something is wrong, and every
// error message stays encoding/json's.
//
// Accepted: an object whose keys are exactly name / directed / nodes /
// edges, each at most once, spelled plainly; nodes of id / label / attrs and
// edges of from / to / label / weight under the same rule; ids that are
// plain integers of at most 18 digits; weights in JSON number syntax that
// strconv.ParseFloat takes; plain strings (valid UTF-8, no escape, no
// control character); JSON whitespace anywhere. Declined: everything else —
// unknown, case-folded, duplicate, escaped or non-ASCII keys (encoding/json
// folds case, Unicode included, and lets the last duplicate win), string
// values with an escape or invalid UTF-8 (encoding/json unquotes and
// coerces them), null anywhere, fractional / exponent / overflowing ids,
// out-of-range weights, and any syntax error.

// maxPresize caps how many wire elements an array is sized for up front. The
// size is an estimate from the bytes that remain, so an 8 MiB body of
// "[{},0,0,0,…" must not reserve 40 bytes for every three of them before the
// second element is found not to be an object; past the cap append grows as
// usual.
const maxPresize = 1 << 16

type wireScanner struct {
	data []byte
	i    int
	// strs shares one string per distinct label, attribute key and
	// attribute value seen in this parse: a direct-mapped cache, so a
	// payload of all-distinct strings pays one compare per string and a
	// knowledge graph's handful of relation labels are allocated once
	// instead of once per edge.
	strs [64]string
	// attrSeen maps the raw bytes of attrs objects decoded earlier in this
	// parse to their maps, replaced round-robin once full (attrNext), so
	// the nodes of a graph whose attributes take a handful of values — a
	// knowledge graph's entity types, a planted partition's community ids —
	// share a handful of maps.
	attrSeen [attrSeenSize]struct {
		raw []byte
		m   map[string]string
	}
	attrNext int
}

// attrSeenSize is how many distinct attrs objects one parse remembers.
const attrSeenSize = 8

// scanSlabs is the growable scratch a scan decodes its arrays into. A graph
// keeps exact-size slabs, and the array sizes are not known until the
// closing brackets, so the scan fills pooled scratch and copies each array
// out once at its final length.
type scanSlabs struct {
	nodes []Node
	edges []Edge
}

// maxPooledSlab bounds the scratch returned to the pool (in elements), so
// one 8 MiB upload does not pin megabytes per P afterwards.
const maxPooledSlab = 1 << 14

var slabPool = sync.Pool{New: func() any { return new(scanSlabs) }}

// scanWire decodes data into w, reporting false (w then holds garbage) on
// anything outside the accepted set.
func scanWire(data []byte, w *wire) bool {
	s := wireScanner{data: data}
	s.ws()
	ok := s.graph(w)
	s.ws()
	return ok && s.i == len(data)
}

// graph decodes the graph value at s.i into w and leaves s.i just past it.
// Nodes whose attrs objects are the same bytes get the same map
// (wireScanner.attrs); w's maps are read-only values from then on.
func (s *wireScanner) graph(w *wire) bool {
	sc := slabPool.Get().(*scanSlabs)
	defer func() {
		clear(sc.nodes) // drop the strings and maps the scratch points at
		clear(sc.edges)
		sc.nodes, sc.edges = sc.nodes[:0], sc.edges[:0]
		if cap(sc.nodes) <= maxPooledSlab && cap(sc.edges) <= maxPooledSlab {
			slabPool.Put(sc)
		}
	}()
	ok := s.object(func(key []byte) (bit int, ok bool) {
		switch string(key) {
		case "name":
			var b []byte
			b, ok = s.str()
			w.name = string(b)
			return 1, ok
		case "directed":
			w.directed, ok = s.boolean()
			return 2, ok
		case "nodes":
			ok = scanArray(s, &sc.nodes, (*wireScanner).node)
			w.nodes = sc.nodes
			return 4, ok
		case "edges":
			ok = scanArray(s, &sc.edges, (*wireScanner).edge)
			w.edges = sc.edges
			return 8, ok
		}
		return 0, false
	})
	if !ok {
		return false
	}
	w.nodes, w.edges = exact(w.nodes), exact(w.edges)
	return true
}

// exact copies s into a slice whose capacity is its length.
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

func (s *wireScanner) node(n *Node) bool {
	return s.object(func(key []byte) (bit int, ok bool) {
		switch string(key) {
		case "id":
			n.ID, ok = s.integer()
			return 1, ok
		case "label":
			n.Label, ok = s.shared()
			return 2, ok
		case "attrs":
			n.Attrs, ok = s.attrs()
			return 4, ok
		}
		return 0, false
	})
}

func (s *wireScanner) edge(e *Edge) bool {
	return s.object(func(key []byte) (bit int, ok bool) {
		switch string(key) {
		case "from":
			e.From, ok = s.integer()
			return 1, ok
		case "to":
			e.To, ok = s.integer()
			return 2, ok
		case "label":
			e.Label, ok = s.shared()
			return 4, ok
		case "weight":
			e.Weight, ok = s.number()
			return 8, ok
		}
		return 0, false
	})
}

// object scans one schema object. member decodes the value of a known key
// and names the key by a bit of its own; an unknown key (bit 0), a key seen
// before, or a value member does not take declines the object.
func (s *wireScanner) object(member func(key []byte) (bit int, ok bool)) bool {
	seen := 0
	more, ok := s.open('{', '}')
	for more && ok {
		key, kok := s.key()
		if !kok {
			return false
		}
		bit, vok := member(key)
		if !vok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		more, ok = s.next('}')
	}
	return ok
}

// scanArray scans an array of schema objects into *dst, which it reuses
// from index 0 and leaves holding every element it wrote (the one that
// failed included), so the caller can clear them; what an earlier scan of
// the same (duplicate) member wrote past that is cleared here. Scratch that
// is too small is grown once: after the first element, for as many elements
// of that size as the rest of the input could hold. Elements are close to uniform, so the
// edge array (which ends the payload) gets what it needs; the node array
// ahead of it is sized for the edges' bytes too, an over-estimate that stays
// in the scratch.
func scanArray[T any](s *wireScanner, dst *[]T, elem func(*wireScanner, *T) bool) bool {
	out, old := (*dst)[:0], len(*dst)
	defer func() {
		if len(out) < old {
			clear(out[len(out):old])
		}
		*dst = out
	}()
	more, ok := s.open('[', ']')
	start := s.i
	for more && ok {
		var zero T
		out = append(out, zero)
		if !elem(s, &out[len(out)-1]) {
			return false
		}
		more, ok = s.next(']')
		if len(out) == 1 && more {
			out = slices.Grow(out, min((len(s.data)-s.i)/(s.i-start), maxPresize))
		}
	}
	return ok
}

// attrs decodes a string → string object. Keys here are data, not schema:
// any string is a key, and a repeated key keeps its last value, as a map
// assignment does in encoding/json too.
//
// An object whose bytes repeat an earlier one of this parse byte for byte
// gets that object's map, without a second decode: the remembered bytes end
// at its closing brace, so input that starts with them would decode to the
// same map and stop at the same place. Maps are read-only values (see
// Node.Attrs), so the nodes holding one share it; objects that decode equal
// but are spelled differently simply get maps of their own.
func (s *wireScanner) attrs() (map[string]string, bool) {
	start := s.i
	rest := s.data[start:]
	for i := range s.attrSeen {
		if seen := &s.attrSeen[i]; seen.raw != nil && bytes.HasPrefix(rest, seen.raw) {
			s.i += len(seen.raw)
			return seen.m, true
		}
	}
	m := map[string]string{}
	more, ok := s.open('{', '}')
	for more && ok {
		var k, v string
		if k, ok = s.shared(); !ok || !s.colon() {
			return nil, false
		}
		if v, ok = s.shared(); !ok {
			return nil, false
		}
		m[k] = v
		more, ok = s.next('}')
	}
	if ok {
		s.attrSeen[s.attrNext].raw, s.attrSeen[s.attrNext].m = s.data[start:s.i], m
		s.attrNext = (s.attrNext + 1) % attrSeenSize
	}
	return m, ok
}

// ws skips JSON whitespace.
func (s *wireScanner) ws() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c if it is next.
func (s *wireScanner) eat(c byte) bool {
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// open consumes the opening bracket of an object or array and reports
// whether a first element follows (more) or the container closed at once.
func (s *wireScanner) open(open, close byte) (more, ok bool) {
	if !s.eat(open) {
		return false, false
	}
	s.ws()
	return !s.eat(close), true
}

// next consumes what follows an element: a comma (more elements) or the
// closing bracket.
func (s *wireScanner) next(close byte) (more, ok bool) {
	s.ws()
	if s.eat(',') {
		s.ws()
		return true, true
	}
	return false, s.eat(close)
}

// colon consumes the separator between a key and its value.
func (s *wireScanner) colon() bool {
	s.ws()
	if !s.eat(':') {
		return false
	}
	s.ws()
	return true
}

// key scans a schema key and its colon. Only plainly spelled ASCII keys are
// taken: an escape or a non-ASCII byte could still name a field under
// encoding/json's unquoting and case folding, so those decline.
func (s *wireScanner) key() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.data) {
		c := s.data[s.i]
		if c == '"' {
			key := s.data[start:s.i]
			s.i++
			return key, s.colon()
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			return nil, false
		}
		s.i++
	}
	return nil, false
}

func (s *wireScanner) boolean() (v, ok bool) {
	switch rest := s.data[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += 5
		return false, true
	}
	return false, false
}

// digits consumes a run of decimal digits and returns how many.
func (s *wireScanner) digits() int {
	start := s.i
	for s.i < len(s.data) && s.data[s.i]-'0' <= 9 {
		s.i++
	}
	return s.i - start
}

// intPart consumes JSON's integer part, -?(0|[1-9][0-9]*), and returns its
// value (meaningful up to 18 digits) and its digit count, 0 when it is
// malformed.
func (s *wireScanner) intPart() (v, n int) {
	neg := s.eat('-')
	start := s.i
	n = s.digits()
	if n > 1 && s.data[start] == '0' {
		return 0, 0 // a leading zero is a syntax error
	}
	for _, c := range s.data[start:s.i] {
		v = v*10 + int(c-'0')
	}
	if neg {
		v = -v
	}
	return v, n
}

// integer scans an int field (a node id or an edge endpoint). Only what
// cannot overflow and is not spelled as a fraction or with an exponent is
// taken (encoding/json rejects "1.0" and "1e2" for an int, and reports
// overflow with its own message).
func (s *wireScanner) integer() (NodeID, bool) {
	v, n := s.intPart()
	if n == 0 || n > 18 {
		return 0, false
	}
	if s.i < len(s.data) {
		switch s.data[s.i] {
		case '.', 'e', 'E':
			return 0, false
		}
	}
	return NodeID(v), true
}

// number scans a float64 field: JSON's number grammar checked here (it is
// narrower than ParseFloat's), the value left to ParseFloat so rounding,
// range errors and the sign of "-0" are encoding/json's.
func (s *wireScanner) number() (float64, bool) {
	first := s.i
	if _, n := s.intPart(); n == 0 {
		return 0, false
	}
	if s.eat('.') && s.digits() == 0 {
		return 0, false
	}
	if s.eat('e') || s.eat('E') {
		if !s.eat('+') {
			s.eat('-')
		}
		if s.digits() == 0 {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(s.data[first:s.i]), 64)
	return f, err == nil
}

// shared scans a string value and returns it from the per-parse string
// cache.
func (s *wireScanner) shared() (string, bool) {
	b, ok := s.str()
	if !ok || len(b) == 0 {
		return "", ok
	}
	slot := &s.strs[(len(b)*131+int(b[0])*31+int(b[len(b)-1]))%len(s.strs)]
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot, true
}

// str scans one JSON string that needs no unquoting — valid UTF-8 with no
// escape and no control character — and returns its bytes, a sub-slice of
// the input. Any other string declines: its decoding (escapes, surrogate
// pairs, invalid UTF-8 coerced to U+FFFD) is encoding/json's.
func (s *wireScanner) str() ([]byte, bool) {
	data, i := s.data, s.i
	if i >= len(data) || data[i] != '"' {
		return nil, false
	}
	i++
	start := i
	for i < len(data) {
		switch c := data[i]; {
		case c == '"':
			s.i = i + 1
			return data[start:i], true
		case c == '\\' || c < ' ':
			return nil, false
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				return nil, false
			}
			i += size
		}
	}
	return nil, false
}

// skipValue finds the end of the JSON value that starts at data[i] without
// decoding or validating it — brackets are only counted, not matched by
// kind, and scalars run to the next delimiter. It is how ParseMember steps
// over the members it does not decode; whatever it steps over is validated
// by whoever decodes those bytes.
func skipValue(data []byte, i int) (end int, ok bool) {
	if i >= len(data) {
		return i, false
	}
	switch data[i] {
	case '{', '[':
	case '"':
		return skipString(data, i)
	default:
		for end = i; end < len(data); end++ {
			switch data[end] {
			case ',', '}', ']', ' ', '\t', '\r', '\n':
				return end, end > i
			}
		}
		return end, end > i
	}
	for depth := 0; i < len(data); i++ {
		switch data[i] {
		case '"':
			if i, ok = skipString(data, i); !ok {
				return i, false
			}
			i--
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return i + 1, true
			}
		}
	}
	return i, false
}

// skipString steps over the string whose opening quote is data[i].
func skipString(data []byte, i int) (end int, ok bool) {
	for i++; i < len(data); i++ {
		switch data[i] {
		case '"':
			return i + 1, true
		case '\\':
			i++
		}
	}
	return i, false
}

// Member is the graph-valued member ParseMember found: data[Lo:Hi] is its
// value, without surrounding whitespace, and Graph, Err are what
// ParseJSON(data[Lo:Hi]) returns.
type Member struct {
	Lo, Hi int
	Graph  *Graph
	Err    error
}

// ParseMember walks the JSON object data holds once, parsing the value of
// the member named key as a graph where it lies, so a caller can hand
// everything around that one (large) value to encoding/json. It answers only
// when it is sure which member encoding/json would bind to a field tagged
// key: every top-level key is plainly spelled ASCII, exactly one is key
// itself, and no other folds to it — and only when the scanner takes the
// graph. Nothing outside the graph is validated; the object may be followed
// by anything.
//
// The graph is decoded by the scanner as the walk meets it, and the scanner
// reports where the value ended; the other members are stepped over by
// skipValue. A graph the scanner declines makes ParseMember decline, and
// the caller's encoding/json road decodes it.
func ParseMember(data []byte, key string) (m Member, ok bool) {
	s := wireScanner{data: data}
	s.ws()
	more, ok := s.open('{', '}')
	found := false
	var w wire
	for more && ok {
		k, kok := s.key()
		if !kok {
			return Member{}, false
		}
		mine := string(k) == key
		switch {
		case mine && found, !mine && bytes.EqualFold(k, []byte(key)):
			return Member{}, false // k is ASCII, so this is encoding/json's fold
		case mine:
			m.Lo = s.i
			if !s.graph(&w) {
				return Member{}, false
			}
			found, m.Hi = true, s.i
		default:
			end, vok := skipValue(data, s.i)
			if !vok {
				return Member{}, false
			}
			s.i = end
		}
		more, ok = s.next('}')
	}
	if !ok || !found {
		return Member{}, false
	}
	g := New()
	if m.Err = g.load(&w); m.Err == nil {
		m.Graph = g
	}
	return m, true
}
