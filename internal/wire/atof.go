package wire

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// The conversion of a decimal mantissa and exponent to the nearest
// float64 is Eisel–Lemire, the algorithm strconv.ParseFloat itself
// runs (https://nigeltao.github.io/blog/2020/eisel-lemire.html): one or
// two 64×64→128-bit products against a table of powers of ten, which
// either yields the correctly rounded float64 or declines. It declines
// near a rounding halfway point the products cannot resolve, outside
// the table's range, and for results that would be subnormal or
// overflow; the caller then asks strconv, whose slow path settles
// every case.

// The table's exponent range: past it every mantissa of at most 19
// digits over- or underflows a float64.
const (
	minExp10 = -348
	maxExp10 = 347
)

// pow10 holds 10^e for e in [minExp10, maxExp10] as a 128-bit
// mantissa {hi, lo} shifted so its top bit is set, rounded down. It is
// computed exactly with math/big once, at package init, and is equal
// row for row to the table strconv compiles in.
var pow10 = pow10Table()

func pow10Table() *[maxExp10 - minExp10 + 1][2]uint64 {
	t := new([maxExp10 - minExp10 + 1][2]uint64)
	var p, x, e big.Int
	ten := big.NewInt(10)
	var buf [16]byte
	for exp10 := minExp10; exp10 <= maxExp10; exp10++ {
		p.Exp(ten, e.SetInt64(int64(max(exp10, -exp10))), nil)
		switch n := p.BitLen(); {
		case exp10 < 0: // 2^(127+n) / 10^-exp10 lies in (2^127, 2^128)
			x.Quo(x.Lsh(big.NewInt(1), uint(127+n)), &p)
		case n > 128:
			x.Rsh(&p, uint(n-128))
		default:
			x.Lsh(&p, uint(128-n))
		}
		x.FillBytes(buf[:])
		t[exp10-minExp10] = [2]uint64{binary.BigEndian.Uint64(buf[:8]), binary.BigEndian.Uint64(buf[8:])}
	}
	return t
}

// eiselLemire returns the float64 nearest to ±man·10^exp10, or false
// when it cannot tell which that is (see above). The terse comments
// name the sections of the blog post.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	// Exp10 Range.
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < minExp10 || maxExp10 < exp10 {
		return 0, false
	}
	pow := &pow10[exp10-minExp10]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	exp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[0])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[1])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	mant := xHi >> (msb + 9)
	exp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	// exp2 is unsigned: 0 or an underflow wrapped around is subnormal,
	// 0x7FF and above is Inf or NaN.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := exp2<<52 | mant&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
