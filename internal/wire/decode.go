package wire

import "strconv"

// Fields says where each key of a request body lands: a non-nil
// pointer marks the key as one the endpoint's struct is tagged with
// (and points at that field), nil as a key the endpoint does not know.
// The canonical parser treats an unknown key as not canonical, because
// encoding/json skips its value whatever it is.
type Fields struct {
	Query  *[]float64 // "query"
	Values *[]float64 // "values"
	Eps    *float64   // "eps"
	K      *int       // "k"
}

// decodeCanonical parses body in one pass if it has the canonical
// shape and stores its values through f, reporting true. On anything
// else it reports false with nothing stored — the values are kept
// local until the whole body has parsed, since encoding/json must then
// start from the same zero struct it always started from.
func decodeCanonical(body []byte, f Fields, l int) bool {
	var (
		query, values              []float64
		eps                        float64
		k                          int
		seenQ, seenV, seenE, seenK bool
	)
	p := parser{b: body}
	if !p.open('{') {
		return false
	}
	for more := !p.close('}'); more; {
		key, ok := p.key()
		if !ok {
			return false
		}
		// A key is canonical when the endpoint knows it and it has not
		// been seen: encoding/json skips an unknown key's value whatever
		// it is, and lets a later duplicate win unless it is null.
		switch string(key) {
		case "query":
			ok, seenQ = f.Query != nil && !seenQ && p.floats(&query, l), true
		case "values":
			ok, seenV = f.Values != nil && !seenV && p.floats(&values, l), true
		case "eps":
			ok, seenE = f.Eps != nil && !seenE && p.float(&eps), true
		case "k":
			ok, seenK = f.K != nil && !seenK && p.int(&k), true
		default:
			ok = false
		}
		if !ok {
			return false
		}
		if more, ok = p.next('}'); !ok {
			return false
		}
	}
	if p.ws(); p.i != len(p.b) {
		return false // encoding/json's Decoder stops at the value's end; let it
	}
	if seenQ {
		*f.Query = query
	}
	if seenV {
		*f.Values = values
	}
	if seenE {
		*f.Eps = eps
	}
	if seenK {
		*f.K = k
	}
	return true
}

// parser is a cursor over a body. Every method leaves the cursor
// meaningless after reporting !ok; the caller gives up on the first.
type parser struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (p *parser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\r', '\n':
			p.i++
		default:
			return
		}
	}
}

// open consumes optional whitespace and the opening delimiter c.
func (p *parser) open(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// close consumes optional whitespace and, if it is next, the closing
// delimiter c of an empty object or array.
func (p *parser) close(c byte) bool { return p.open(c) }

// next consumes what follows an element: a comma (more: another
// element must follow) or the closing delimiter c.
func (p *parser) next(c byte) (more, ok bool) {
	if p.open(',') {
		return true, true
	}
	return false, p.open(c)
}

// key consumes `"name" :` and returns name's raw bytes. A key with an
// escape in it comes back cut short at the backslash's quote or with
// the backslash in it; either way it equals no known name.
func (p *parser) key() ([]byte, bool) {
	if !p.open('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) && p.b[p.i] != '"' {
		p.i++
	}
	if p.i == len(p.b) {
		return nil, false
	}
	key := p.b[start:p.i]
	p.i++
	return key, p.open(':')
}

// number consumes optional whitespace and one token of the JSON number
// grammar, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, reporting
// whether it had no fraction and no exponent. strconv accepts more
// than the grammar (+1, .5, 1., 0x1p-2, inf), so the grammar is checked
// here; whatever follows the token is checked by the caller's next.
func (p *parser) number() (tok []byte, integer, ok bool) {
	p.ws()
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false, false
		}
		i = j
	}
	tok = b[p.i:i]
	p.i = i
	return tok, integer, true
}

// digits returns the index after the run of decimal digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// float consumes a number the way encoding/json stores one in a
// float64: strconv.ParseFloat over the token, any error (1e999 is out
// of range) making the body encoding/json's to refuse.
func (p *parser) float(v *float64) bool {
	tok, _, ok := p.number()
	if !ok {
		return false
	}
	var err error
	*v, err = strconv.ParseFloat(string(tok), 64)
	return err == nil
}

// int consumes a number the way encoding/json stores one in an int:
// strconv.ParseInt over the token, so 1.0 and 1e2 are not ints.
func (p *parser) int(v *int) bool {
	tok, integer, ok := p.number()
	if !ok || !integer {
		return false
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	*v = int(n)
	return err == nil
}

// floats consumes an array of numbers into a fresh slice pre-sized to
// l. An empty array is an empty, non-nil slice, as encoding/json makes
// it.
func (p *parser) floats(out *[]float64, l int) bool {
	if !p.open('[') {
		return false
	}
	vs := make([]float64, 0, l)
	for more := !p.close(']'); more; {
		var v float64
		ok := p.float(&v)
		if !ok {
			return false
		}
		vs = append(vs, v)
		if more, ok = p.next(']'); !ok {
			return false
		}
	}
	*out = vs
	return true
}
