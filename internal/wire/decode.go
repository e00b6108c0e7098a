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

// maxMantDigits is how many significant digits a uint64 mantissa
// holds without overflow: 10^19 < 2^64.
const maxMantDigits = 19

// number is one token of the JSON number grammar as scan read it:
// ±man·10^exp10 is its value unless long.
type number struct {
	man     uint64 // the significant digits
	exp10   int    // the power of ten man is scaled by
	neg     bool   // a leading '-'
	long    bool   // more than maxMantDigits significant digits: man wrapped around
	integer bool   // no fraction and no exponent
}

// scan consumes optional whitespace and one token of the JSON number
// grammar, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, reading its
// value as it goes; it returns the value read and the token's bytes.
// strconv accepts more than the grammar (+1, .5, 1., 0x1p-2, inf), so
// the grammar is checked here and nowhere else; whatever follows the
// token is checked by the caller's next. An exponent is clamped at
// 10000 as strconv clamps it, so the two read even a token like
// 0.(20 000 zeros)1e199900 alike.
func (p *parser) scan() (n number, tok []byte, ok bool) {
	p.ws()
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		n.neg = true
		i++
	}
	var man uint64
	nd := 0 // significant digits
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		start := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			man = man*10 + uint64(b[i]-'0')
		}
		nd = i - start
	default:
		return n, nil, false
	}
	n.integer = true
	if i < len(b) && b[i] == '.' {
		n.integer = false
		i++
		frac := i
		if nd == 0 {
			for i < len(b) && b[i] == '0' { // not significant: 0.000123
				i++
			}
		}
		sig := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			man = man*10 + uint64(b[i]-'0')
		}
		if i == frac {
			return n, nil, false
		}
		nd += i - sig
		n.exp10 = frac - i
	}
	n.man, n.long = man, nd > maxMantDigits
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		n.integer = false
		i++
		neg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		e, j := 0, i
		for ; j < len(b) && '0' <= b[j] && b[j] <= '9'; j++ {
			if e < 10000 {
				e = e*10 + int(b[j]-'0')
			}
		}
		if j == i {
			return n, nil, false
		}
		if neg {
			e = -e
		}
		n.exp10 += e
		i = j
	}
	tok, p.i = b[p.i:i], i
	return n, tok, true
}

// float consumes a number the way encoding/json stores one in a
// float64, as the bits strconv.ParseFloat gives for the token:
// Eisel–Lemire's when the mantissa fits and it decides, else strconv's
// own, any error (1e999 is out of range) making the body encoding/json's
// to refuse.
func (p *parser) float(v *float64) bool {
	n, tok, ok := p.scan()
	if !ok {
		return false
	}
	if !n.long {
		if *v, ok = eiselLemire(n.man, n.exp10, n.neg); ok {
			return true
		}
	}
	var err error
	*v, err = strconv.ParseFloat(string(tok), 64)
	return err == nil
}

// int consumes a number the way encoding/json stores one in an int:
// strconv.ParseInt over the token, so 1.0 and 1e2 are not ints.
func (p *parser) int(v *int) bool {
	n, tok, ok := p.scan()
	if !ok || !n.integer {
		return false
	}
	i, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	*v = int(i)
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
