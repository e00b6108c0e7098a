package wire

import (
	"math"
	"strconv"

	"twinsearch/internal/series"
)

// appendMatches appends ms as [{"start":S,"dist":D},...] — the bytes
// encoding/json produces for the serving tier's match struct, whose
// omitempty writes the dist key only when Dist >= 0 ("not computed" is
// negative). It reports false when a distance that must be written is
// NaN or infinite, which encoding/json refuses to encode.
func appendMatches(b []byte, ms []series.Match) ([]byte, bool) {
	b = append(b, '[')
	for i, m := range ms {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"start":`...)
		b = strconv.AppendInt(b, int64(m.Start), 10)
		if m.Dist >= 0 {
			if math.IsNaN(m.Dist) || math.IsInf(m.Dist, 0) {
				return b, false
			}
			b = append(b, `,"dist":`...)
			b = appendFloat(b, m.Dist)
		}
		b = append(b, '}')
	}
	return append(b, ']'), true
}

// appendFloat appends a finite f in encoding/json's float64 format:
// the shortest decimal that round-trips, in ES6 number-to-string
// layout — exponent form below 1e-6 and from 1e21, with a one-digit
// exponent's leading zero removed (1e-07 → 1e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
