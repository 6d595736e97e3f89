package graph

import (
	"bytes"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// A non-reflective decoder for the upload wire schema. Every chat and job
// carries its graph, and encoding/json walks those bytes four times
// (Decoder scan, RawMessage copy, checkValid, reflective decode); this
// scanner walks them once, straight into the jsonGraph that loadWire
// consumes.
//
// The contract is one-sided: the scanner either decodes the value
// completely or declines, and a decline costs nothing but the fallback —
// the caller runs json.Unmarshal on the same bytes. It therefore only has
// to be right about what it accepts (accepts ⇒ the jsonGraph encoding/json
// would have produced), never about why something is wrong, and every
// error message stays encoding/json's.
//
// Accepted: an object whose keys are exactly name / directed / nodes /
// edges, each at most once, spelled plainly; nodes of id / label / attrs and
// edges of from / to / label / weight under the same rule; ids that are
// plain integers of at most 18 digits; weights in JSON number syntax that
// strconv.ParseFloat takes; strings with any escape encoding/json accepts,
// invalid UTF-8 coerced to U+FFFD exactly as it coerces it; JSON whitespace
// anywhere. Declined: everything else — unknown, case-folded, duplicate,
// escaped or non-ASCII keys (encoding/json folds case, Unicode included, and
// lets the last duplicate win), null anywhere, fractional / exponent /
// overflowing ids, out-of-range weights, and any syntax error.

// maxPresize caps how many wire elements an array is sized for up front. The
// size is an estimate from the bytes that remain, so an 8 MiB body of
// "[{},0,0,0,…" must not reserve 40 bytes for every three of them before the
// second element is found not to be an object; past the cap append grows as
// usual.
const maxPresize = 1 << 16

type wireScanner struct {
	data []byte
	i    int
	// buf is the unquoting scratch for strings that need it.
	buf []byte
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

// scanWire decodes data into jg, reporting false (jg then holds garbage) on
// anything outside the accepted set. Nodes whose attrs objects are the same
// bytes get the same map (wireScanner.attrs); jg's maps are read-only
// values from then on.
func scanWire(data []byte, jg *jsonGraph) bool {
	s := wireScanner{data: data}
	s.ws()
	ok := s.object(func(key []byte) (bit int, ok bool) {
		switch string(key) {
		case "name":
			var b []byte
			b, ok = s.str()
			jg.Name = string(b)
			return 1, ok
		case "directed":
			jg.Directed, ok = s.boolean()
			return 2, ok
		case "nodes":
			jg.Nodes, ok = scanArray(&s, (*wireScanner).node)
			return 4, ok
		case "edges":
			jg.Edges, ok = scanArray(&s, (*wireScanner).edge)
			return 8, ok
		}
		return 0, false
	})
	s.ws()
	return ok && s.i == len(data)
}

func (s *wireScanner) node(n *jsonNode) bool {
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

func (s *wireScanner) edge(e *jsonEdge) bool {
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

// scanArray scans an array of schema objects into a slab sized once: after
// the first element, for as many elements of that size as the rest of the
// input could hold. Elements are close to uniform, so the edge array (which
// ends the payload) gets what it needs; the node array ahead of it is sized
// for the edges' bytes too, an over-estimate that dies with the parse.
func scanArray[T any](s *wireScanner, elem func(*wireScanner, *T) bool) ([]T, bool) {
	out := []T{}
	more, ok := s.open('[', ']')
	start := s.i
	for more && ok {
		var zero T
		out = append(out, zero)
		if !elem(s, &out[len(out)-1]) {
			return nil, false
		}
		more, ok = s.next(']')
		if len(out) == 1 && more {
			out = slices.Grow(out, min((len(s.data)-s.i)/(s.i-start), maxPresize))
		}
	}
	return out, ok
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

// integer scans an int field. Only what cannot overflow and is not spelled as
// a fraction or with an exponent is taken (encoding/json rejects "1.0" and
// "1e2" for an int, and reports overflow with its own message).
func (s *wireScanner) integer() (int, bool) {
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
	return v, true
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

// str scans one JSON string and returns its decoded bytes: a sub-slice of
// the input when nothing needed unquoting, s.buf otherwise. It decodes what
// encoding/json's scanner accepts the way its unquote does — the two-rune
// surrogate escapes, U+FFFD for a lone surrogate and for each byte of
// invalid UTF-8 — and declines what that scanner rejects: raw control
// characters, unknown escapes, short \u escapes, a missing closing quote.
func (s *wireScanner) str() ([]byte, bool) {
	data, i := s.data, s.i
	if i >= len(data) || data[i] != '"' {
		return nil, false
	}
	i++
	start := i
	for i < len(data) {
		c := data[i]
		if c == '"' {
			s.i = i + 1
			return data[start:i], true
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}

	buf := append(s.buf[:0], data[start:i]...)
	for i < len(data) {
		switch c := data[i]; {
		case c == '"':
			s.i, s.buf = i+1, buf
			return buf, true
		case c < ' ':
			return nil, false
		case c == '\\':
			if i+1 >= len(data) {
				return nil, false
			}
			switch data[i+1] {
			case '"', '\\', '/':
				buf = append(buf, data[i+1])
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r := hex4(data[i:])
				if r < 0 {
					return nil, false
				}
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, hex4(data[i+6:])); dec != unicode.ReplacementChar {
						buf = utf8.AppendRune(buf, dec)
						i += 12
						continue
					}
					r = unicode.ReplacementChar // lone surrogate; the next escape stands alone
				}
				buf = utf8.AppendRune(buf, r)
				i += 6
				continue
			default:
				return nil, false
			}
			i += 2
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			buf = utf8.AppendRune(buf, r)
			i += size
		}
	}
	return nil, false
}

// hex4 decodes a \uXXXX escape at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// skipValue finds the end of the JSON value that starts at data[i] without
// decoding or validating it — brackets are only counted, not matched by
// kind, and scalars run to the next delimiter. It is how MemberSpan steps
// over values; whatever it steps over is validated by whoever decodes those
// bytes.
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

// MemberSpan locates the value of the member named key in the JSON object
// data holds, so a caller can decode that one (large) value in place and
// hand everything around it to encoding/json. It answers only when it is
// sure which member encoding/json would bind to a field tagged key: every
// top-level key is plainly spelled ASCII, exactly one is key itself, and no
// other folds to it. data[lo:hi] is then the value, without surrounding
// whitespace. Nothing is validated; the object may be followed by anything.
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
