package wire

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// checkFloat holds the parser's float to its reference on one token:
// followed by a delimiter, it consumes exactly the token and stores
// strconv.ParseFloat's bits, or refuses where strconv errs. It reports
// whether Eisel–Lemire decided the token without strconv. (No
// t.Helper: it costs more than the check.)
func checkFloat(t *testing.T, tok string) (decided bool) {
	want, wantErr := strconv.ParseFloat(tok, 64)
	p := parser{b: []byte(tok + "]")}
	var got float64
	ok := p.float(&got)
	switch {
	case ok != (wantErr == nil):
		t.Fatalf("%q: parser ok=%v, strconv: %v", tok, ok, wantErr)
	case ok && p.i != len(tok):
		t.Fatalf("%q: consumed %d bytes of %d", tok, p.i, len(tok))
	case ok && math.Float64bits(got) != math.Float64bits(want):
		t.Fatalf("%q: parsed %v (%#016x), strconv %v (%#016x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	n, _, _ := (&parser{b: p.b}).scan()
	_, decided = eiselLemire(n.man, n.exp10, n.neg)
	return decided && !n.long
}

// TestParseFloatMatchesStrconv holds the one-pass conversion to
// strconv.ParseFloat, encoding/json's own conversion, bit for bit over
// generated tokens in every spelling a client writes and over the
// cases at the edges of each path.
func TestParseFloatMatchesStrconv(t *testing.T) {
	for _, tok := range []string{
		"1234567890123456789",                       // 19 digits: the mantissa holds them all
		"9999999999999999999",                       // the largest 19-digit mantissa
		"12345678901234567891",                      // 20: strconv converts
		"1234567890123456789000000",                 // 25
		"1234567890123456789012345",                 // 25
		"0.1234567890123456789012345",               // 25 after the point
		"0.0000000000123456789012345e5",             // leading zeros are not significant
		"0.000000000000000000001234567890123456789", // 19 after 21 zeros
		"9007199254740993",                          // 2^53+1: halfway between two float64s
		"9007199254740993.0000000000001",
		"0", "-0", "0.0", "-0.0e5", "0e99999", "-0E-99999",
		"4.9e-324", "5e-324", "2e-324", // the least subnormal and its rounding
		"2.2250738585072011e-308", "2.2250738585072014e-308", // either side of the least normal
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
		"1e-400", "-1e-400", "1e309", "-1e309", "1e999999999999",
		"1e-348", "1e-349", "1e347", "1e348", "123456789e-360",
		"0.1", "0.2", "0.3", "1e23", "8.41e21", "5e-20",
		"0." + strings.Repeat("0", 20000) + "1e199900", // the exponent clamps as strconv's does
	} {
		checkFloat(t, tok)
	}

	rng := rand.New(rand.NewSource(32))
	formats := []byte{'g', 'f', 'e'}
	values := []func() float64{
		func() float64 { return math.Float64frombits(rng.Uint64()) },
		func() float64 { return rng.NormFloat64() * 10 },
		func() float64 { return rng.NormFloat64() * math.Pow10(rng.Intn(41)-20) },
	}
	n := 1 << 20
	if testing.Short() {
		n >>= 4
	}
	marshaled, decided := 0, 0
	for i := 0; i < n; i++ {
		v := values[i%len(values)]()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue // no JSON spelling
		}
		var tok string
		f := i / len(values) % 4
		switch {
		case f == 3:
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			tok = string(b)
			marshaled++
		case formats[f] == 'f' && (math.Abs(v) > 1e30 || math.Abs(v) < 1e-30):
			// 'f' spells these in hundreds of digits: test them, but
			// not a quarter of the time.
			tok = strconv.FormatFloat(v, 'e', rng.Intn(20)-1, 64)
		default:
			tok = strconv.FormatFloat(v, formats[f], rng.Intn(20)-1, 64)
		}
		if checkFloat(t, tok) && f == 3 {
			decided++
		}
	}
	// Eisel–Lemire must decide nearly every token a client writes, or the
	// fast path is strconv behind a scanner. (json.Marshal spells
	// 1e19 ≤ |v| < 1e21 with zeros past the 19th digit, which strconv
	// converts: 1.6 % of these tokens.)
	if decided < marshaled*95/100 {
		t.Fatalf("Eisel–Lemire decided %d of %d json.Marshal tokens", decided, marshaled)
	}
}
