// AVX2 Eq. 2 sibling-sweep kernels (float64 and float32 bound rows), the
// candidate-window sweep, the two enclosure tests, band expansion, the
// paired width-increase sums, and the CPUID/XGETBV feature probes.
//
// Lane recipe (4 float64 per step), mirroring portable.go's excursion:
//
//	above  = v GT_OQ u            (ordered: false on NaN, like Go >)
//	below  = v LT_OQ l
//	d      = (v-u) & above  |  (l-v) & (below &^ above)
//	acc    = VMAXPD(acc, d)
//
// The masked d lanes are never NaN and never -0 (see the package NaN
// contract), so VMAXPD's NaN/zero asymmetries are unobservable and the
// accumulated maxima equal the sequential scalar maximum bit-for-bit.
// The accumulator is compared against the broadcast limit on the
// package's graduated schedule (after 8, 16, 32 lanes, then every 64);
// any slot above it abandons the row.

#include "textflag.h"

// tailmask holds four all-ones qwords then four zero qwords: the 32
// bytes at offset (4-r)*8 select the first r lanes of a float64 step,
// and, read as eight all-ones dwords then eight zero ones, the 32 bytes
// at offset (8-r)*4 the first r lanes of a float32 step.
DATA tailmask<>+0(SB)/8, $0xffffffffffffffff
DATA tailmask<>+8(SB)/8, $0xffffffffffffffff
DATA tailmask<>+16(SB)/8, $0xffffffffffffffff
DATA tailmask<>+24(SB)/8, $0xffffffffffffffff
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// EXCURSION computes d of the 4 lanes v=Y1 against [l, u] into Y4 by
// the recipe above (Y6 = above, Y8 = below &^ above, Y5 scratch).
#define EXCURSION(u, l) \
	VSUBPD  u, Y1, Y4; \
	VSUBPD  Y1, l, Y5; \
	VCMPPD  $0x1E, u, Y1, Y6; \
	VCMPPD  $0x11, l, Y1, Y8; \
	VANDPD  Y6, Y4, Y4; \
	VANDNPD Y8, Y6, Y8; \
	VANDPD  Y8, Y5, Y5; \
	VORPD   Y5, Y4, Y4

// LANES folds the 4 lanes v=Y1, u=Y2, l=Y3 into the running maxima Y0.
#define LANES \
	EXCURSION(Y2, Y3); \
	VMAXPD  Y4, Y0, Y0

// GATHER8 compares two 4-lane columns of the enclosure test's
// extremes, max0 and min0 then max1 and min1, against the bounds lanes
// at[off/4 … off/4+7] of SI and DI (R9 points at at's entry for the
// block's first lane): each bound's 8 lanes are gathered as float32
// under an all-ones mask (VGATHERDPS clears its mask, so it is set
// afresh each time), widened a half at a time, and the extremes become
// the GT_OQ and LT_OQ masks. Y8-Y11 are scratch.
#define GATHER8(off, max0, max1, min0, min1) \
	VMOVDQU      off(R9), Y8; \
	VPCMPEQD     Y9, Y9, Y9; \
	VGATHERDPS   Y9, (SI)(Y8*4), Y10; \
	VPCMPEQD     Y9, Y9, Y9; \
	VGATHERDPS   Y9, (DI)(Y8*4), Y11; \
	VCVTPS2PD    X10, Y9; \
	VCMPPD       $0x1E, Y9, max0, max0; \
	VEXTRACTF128 $1, Y10, X10; \
	VCVTPS2PD    X10, Y10; \
	VCMPPD       $0x1E, Y10, max1, max1; \
	VCVTPS2PD    X11, Y9; \
	VCMPPD       $0x11, Y9, min0, min0; \
	VEXTRACTF128 $1, Y11, X11; \
	VCVTPS2PD    X11, Y11; \
	VCMPPD       $0x11, Y11, min1, min1

// func sweepKernelAVX2(upper, lower *float64, stride int, s *float64, n int, limit float64, dists *float64, rows int)
TEXT ·sweepKernelAVX2(SB), NOSPLIT, $0-64
	MOVQ upper+0(FP), SI         // SI, DI = current row of each bound array
	MOVQ lower+8(FP), DI
	MOVQ stride+16(FP), R8
	SHLQ $3, R8                  // R8 = row stride in bytes
	MOVQ s+24(FP), DX
	MOVQ n+32(FP), CX
	VBROADCASTSD limit+40(FP), Y7
	MOVQ dists+48(FP), R11
	MOVQ rows+56(FP), R12

	MOVQ CX, R13
	ANDQ $3, R13                 // R13 = tail lanes (n mod 4)
	SUBQ R13, CX
	SHLQ $3, CX                  // CX = bytes covered by whole 4-lane steps
	LEAQ tailmask<>(SB), AX
	MOVQ $4, BX
	SUBQ R13, BX
	VMOVDQU (AX)(BX*8), Y10      // Y10 = first-R13-lanes mask (unused when R13 = 0)

row:
	VXORPD Y0, Y0, Y0            // Y0 = running maxima, +0 seeded
	XORQ   BX, BX                // BX = byte offset into the row and into s
	MOVQ   $64, R9               // R9 = next check point: 8 lanes

block:
	CMPQ BX, CX
	JAE  tail
	MOVQ R9, R10                 // R10 = end of this block = min(R9, CX)
	CMPQ R10, CX
	CMOVQHI CX, R10

step:
	VMOVUPD (DX)(BX*1), Y1       // v
	VMOVUPD (SI)(BX*1), Y2       // u
	VMOVUPD (DI)(BX*1), Y3       // l
	LANES
	ADDQ $32, BX
	CMPQ BX, R10
	JB   step

	// Check point: abandon when any accumulated maximum exceeds the
	// limit. GT_OQ is false on NaN and against +Inf, so those limits
	// never abandon — the contract's degenerate cases.
	VCMPPD    $0x1E, Y7, Y0, Y9
	VMOVMSKPD Y9, AX
	TESTL     AX, AX
	JNZ       abandon
	MOVQ R9, AX                  // next check point: double up to 64
	CMPQ AX, $512                // lanes (512 bytes), then every 64
	JBE  advance
	MOVQ $512, AX

advance:
	ADDQ AX, R9
	JMP  block

tail:
	TESTQ R13, R13
	JZ    reduce
	// Masked-out lanes load +0 into v, u and l, which selects d = +0.
	VMASKMOVPD (DX)(BX*1), Y10, Y1
	VMASKMOVPD (SI)(BX*1), Y10, Y2
	VMASKMOVPD (DI)(BX*1), Y10, Y3
	LANES

reduce:
	// Horizontal max of the 4 accumulator slots, then the final check
	// for maxima reached since the last check point.
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VSHUFPD      $1, X0, X0, X1
	VMAXSD       X1, X0, X0
	VUCOMISD     X7, X0          // unordered (NaN limit) clears "above"
	JA           abandon
	VMOVSD       X0, (R11)

next:
	ADDQ $8, R11
	ADDQ R8, SI
	ADDQ R8, DI
	DECQ R12
	JNZ  row
	VZEROUPPER
	RET

abandon:
	MOVQ $0xBFF0000000000000, AX // -1: the abandoned-row marker
	MOVQ AX, (R11)
	JMP  next

// func sweepKernel32AVX2(upper, lower *float32, stride int, s *float64, n int, limit float64, dists *float64, rows int)
//
// sweepKernelAVX2 over float32 bound rows: each step loads 4 bounds as
// 128 bits and widens them to 4 float64 (VCVTPS2PD, exact), the n mod 4
// tail through VMASKMOVPS (masked-out lanes load +0, which widens to
// +0), and from there the lane recipe, the schedule and the reduction
// are the float64 routine's. BX counts lanes here, not bytes, because
// the query and the bounds advance at different widths.
TEXT ·sweepKernel32AVX2(SB), NOSPLIT, $0-64
	MOVQ upper+0(FP), SI         // SI, DI = current row of each bound array
	MOVQ lower+8(FP), DI
	MOVQ stride+16(FP), R8
	SHLQ $2, R8                  // R8 = row stride in bytes
	MOVQ s+24(FP), DX
	MOVQ n+32(FP), CX
	VBROADCASTSD limit+40(FP), Y7
	MOVQ dists+48(FP), R11
	MOVQ rows+56(FP), R12

	MOVQ CX, R13
	ANDQ $3, R13                 // R13 = tail lanes (n mod 4)
	SUBQ R13, CX                 // CX = lanes covered by whole 4-lane steps
	LEAQ tailmask<>(SB), AX
	MOVQ $4, BX
	SUBQ R13, BX
	VMOVDQU (AX)(BX*8), Y10      // Y10 = first-R13-qwords mask, for s
	VMOVDQU 16(AX)(BX*4), X11    // X11 = first-R13-dwords mask, for the bounds

row32:
	VXORPD Y0, Y0, Y0            // Y0 = running maxima, +0 seeded
	XORQ   BX, BX                // BX = lane index into the row and into s
	MOVQ   $8, R9                // R9 = next check point: 8 lanes

block32:
	CMPQ BX, CX
	JAE  tail32
	MOVQ R9, R10                 // R10 = end of this block = min(R9, CX)
	CMPQ R10, CX
	CMOVQHI CX, R10

step32:
	VMOVUPD   (DX)(BX*8), Y1     // v
	VCVTPS2PD (SI)(BX*4), Y2     // u, widened
	VCVTPS2PD (DI)(BX*4), Y3     // l, widened
	LANES
	ADDQ $4, BX
	CMPQ BX, R10
	JB   step32

	VCMPPD    $0x1E, Y7, Y0, Y9  // check point, as in sweepKernelAVX2
	VMOVMSKPD Y9, AX
	TESTL     AX, AX
	JNZ       abandon32
	MOVQ R9, AX                  // next check point: double up to 64
	CMPQ AX, $64                 // lanes, then every 64
	JBE  advance32
	MOVQ $64, AX

advance32:
	ADDQ AX, R9
	JMP  block32

tail32:
	TESTQ R13, R13
	JZ    reduce32
	VMASKMOVPD (DX)(BX*8), Y10, Y1
	VMASKMOVPS (SI)(BX*4), X11, X2
	VMASKMOVPS (DI)(BX*4), X11, X3
	VCVTPS2PD  X2, Y2
	VCVTPS2PD  X3, Y3
	LANES

reduce32:
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VSHUFPD      $1, X0, X0, X1
	VMAXSD       X1, X0, X0
	VUCOMISD     X7, X0          // unordered (NaN limit) clears "above"
	JA           abandon32
	VMOVSD       X0, (R11)

next32:
	ADDQ $8, R11
	ADDQ R8, SI
	ADDQ R8, DI
	DECQ R12
	JNZ  row32
	VZEROUPPER
	RET

abandon32:
	MOVQ $0xBFF0000000000000, AX // -1: the abandoned-row marker
	MOVQ AX, (R11)
	JMP  next32

// func sweepWindowsKernelAVX2(data *float64, starts *int32, s *float64, n int, limit float64, dists *float64, rows int)
//
// The candidate sweep: row j is the window data[starts[j]:starts[j]+n],
// standing for both bounds, so the lane is d = |v - w| (VSUBPD, then the
// sign bit cleared with Y11). d is NaN exactly where the generic recipe
// selects +0; VMAXPD returns its second source (Go's first operand)
// when either is NaN, and the accumulator sits there, so such a lane
// leaves it untouched. Whole steps alternate between two accumulators,
// Y0 and Y12, checked together against the limit every 8 lanes.
TEXT ·sweepWindowsKernelAVX2(SB), NOSPLIT, $0-56
	MOVQ data+0(FP), SI
	MOVQ starts+8(FP), R8
	MOVQ s+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSD limit+32(FP), Y7
	MOVQ dists+40(FP), R11
	MOVQ rows+48(FP), R12

	MOVQ CX, R13
	ANDQ $3, R13                 // R13 = tail lanes (n mod 4)
	SUBQ R13, CX
	SHLQ $3, CX                  // CX = bytes covered by whole 4-lane steps
	MOVQ CX, R10
	ANDQ $-64, R10               // R10 = bytes covered by whole 8-lane pairs
	LEAQ tailmask<>(SB), AX
	MOVQ $4, BX
	SUBQ R13, BX
	VMOVDQU (AX)(BX*8), Y10      // Y10 = first-R13-lanes mask (unused when R13 = 0)
	VPCMPEQD Y11, Y11, Y11
	VPSRLQ   $1, Y11, Y11        // Y11 = every bit but the sign

rowW:
	MOVLQSX (R8), DI
	LEAQ    (SI)(DI*8), DI       // DI = this row's window
	VXORPD  Y0, Y0, Y0           // Y0, Y12 = running maxima, +0 seeded
	VXORPD  Y12, Y12, Y12
	XORQ    BX, BX               // BX = byte offset into the window and into s
	CMPQ    BX, R10
	JAE     singleW

pairW:
	VMOVUPD (DX)(BX*1), Y1
	VMOVUPD 32(DX)(BX*1), Y2
	VSUBPD  (DI)(BX*1), Y1, Y1
	VSUBPD  32(DI)(BX*1), Y2, Y2
	VANDPD  Y11, Y1, Y1
	VANDPD  Y11, Y2, Y2
	VMAXPD  Y0, Y1, Y0
	VMAXPD  Y12, Y2, Y12
	ADDQ    $64, BX
	// Check point: abandon when either accumulator has a slot above the
	// limit. GT_OQ is false on NaN and against +Inf, so those limits
	// never abandon.
	VMAXPD    Y12, Y0, Y4
	VCMPPD    $0x1E, Y7, Y4, Y4
	VMOVMSKPD Y4, AX
	TESTL     AX, AX
	JNZ       abandonW
	CMPQ BX, R10
	JB   pairW

singleW:
	CMPQ BX, CX
	JAE  tailW
	VMOVUPD (DX)(BX*1), Y1
	VSUBPD  (DI)(BX*1), Y1, Y1
	VANDPD  Y11, Y1, Y1
	VMAXPD  Y0, Y1, Y0
	ADDQ    $32, BX

tailW:
	TESTQ R13, R13
	JZ    reduceW
	// Masked-out lanes load +0 into v and w: d = +0.
	VMASKMOVPD (DX)(BX*1), Y10, Y1
	VMASKMOVPD (DI)(BX*1), Y10, Y2
	VSUBPD     Y2, Y1, Y1
	VANDPD     Y11, Y1, Y1
	VMAXPD     Y12, Y1, Y12

reduceW:
	VMAXPD       Y12, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VSHUFPD      $1, X0, X0, X1
	VMAXSD       X1, X0, X0
	VUCOMISD     X7, X0          // unordered (NaN limit) clears "above"
	JA           abandonW
	VMOVSD       X0, (R11)

nextW:
	ADDQ $8, R11
	ADDQ $4, R8
	DECQ R12
	JNZ  rowW
	VZEROUPPER
	RET

abandonW:
	MOVQ $0xBFF0000000000000, AX // -1: the abandoned-row marker
	MOVQ AX, (R11)
	JMP  nextW

// func windowsInside32KernelAVX2(upper, lower *float32, at *int32, data *float64, starts *int32, n int, rows int) bool
//
// The enclosure test by lane extremes. The lanes go in 16-lane blocks:
// for each block, every window's 16 lanes are folded into running
// maxima Y0-Y3 and minima Y4-Y7 — VMAXPD and VMINPD with the window as
// the first Intel source, so a NaN lane leaves the accumulator alone —
// and only then are the block's bounds compared, max GT_OQ u and min
// LT_OQ l, into Y12: window lane i's bounds are lane at[i] of each, so
// every 8 of them are gathered (VGATHERDPS, by at's eight entries) and
// widened a half at a time (VCVTPS2PD, exact) — GATHER8. The accumulators
// start at -Inf and +Inf, so a lane NaN in every window compares
// inside. The n mod 16 lanes go a 4-lane column at a time, every load
// and gather masked to the lanes left (all four but in the n mod 4
// tail), so nothing past a window's, a bound's or at's last lane is
// read; masked-out lanes load +0 everywhere and compare inside. Y12 is
// tested once, at the end: the result is whether no mask bit was ever
// set. BX is the block's or column's first lane; AX points at that
// lane of data, so a window's lanes are (AX)(start*8).
TEXT ·windowsInside32KernelAVX2(SB), NOSPLIT, $0-57
	MOVQ upper+0(FP), SI
	MOVQ lower+8(FP), DI
	MOVQ data+24(FP), DX
	MOVQ starts+32(FP), R10
	MOVQ n+40(FP), CX
	MOVQ rows+48(FP), R11

	MOVQ         $0xFFF0000000000000, AX
	MOVQ         AX, X13
	VBROADCASTSD X13, Y13        // Y13 = -Inf, the maximum of no lane
	MOVQ         $0x7FF0000000000000, AX
	MOVQ         AX, X14
	VBROADCASTSD X14, Y14        // Y14 = +Inf, the minimum of no lane
	VXORPD       Y12, Y12, Y12   // Y12 = every outside mask so far
	XORQ         BX, BX
	MOVQ         CX, R13
	ANDQ         $-16, R13       // R13 = lanes covered by whole 16-lane blocks

blockI:
	CMPQ    BX, R13
	JAE     colI
	VMOVAPD Y13, Y0
	VMOVAPD Y13, Y1
	VMOVAPD Y13, Y2
	VMOVAPD Y13, Y3
	VMOVAPD Y14, Y4
	VMOVAPD Y14, Y5
	VMOVAPD Y14, Y6
	VMOVAPD Y14, Y7
	LEAQ    (DX)(BX*8), AX
	MOVQ    R10, R8
	MOVQ    R11, R12

winI:
	MOVLQSX (R8), R9
	VMOVUPD (AX)(R9*8), Y8
	VMOVUPD 32(AX)(R9*8), Y9
	VMOVUPD 64(AX)(R9*8), Y10
	VMOVUPD 96(AX)(R9*8), Y11
	VMAXPD  Y0, Y8, Y0           // (v > max) ? v : max
	VMAXPD  Y1, Y9, Y1
	VMAXPD  Y2, Y10, Y2
	VMAXPD  Y3, Y11, Y3
	VMINPD  Y4, Y8, Y4           // (v < min) ? v : min
	VMINPD  Y5, Y9, Y5
	VMINPD  Y6, Y10, Y6
	VMINPD  Y7, Y11, Y7
	ADDQ    $4, R8
	DECQ    R12
	JNZ     winI

	MOVQ at+16(FP), R9
	LEAQ (R9)(BX*4), R9          // R9 = at[BX:]
	GATHER8(0, Y0, Y1, Y4, Y5)
	GATHER8(32, Y2, Y3, Y6, Y7)
	VORPD     Y1, Y0, Y0
	VORPD     Y3, Y2, Y2
	VORPD     Y5, Y4, Y4
	VORPD     Y7, Y6, Y6
	VORPD     Y2, Y0, Y0
	VORPD     Y6, Y4, Y4
	VORPD     Y0, Y12, Y12
	VORPD     Y4, Y12, Y12
	ADDQ      $16, BX
	JMP       blockI

colI:
	CMPQ BX, CX
	JAE  doneI
	MOVQ CX, R9
	SUBQ BX, R9                  // R9 = lanes left
	MOVQ $4, R13
	CMPQ R9, R13
	CMOVQGT R13, R9              // R9 = this column's lanes, min(left, 4)
	SUBQ R9, R13
	LEAQ tailmask<>(SB), AX
	VMOVDQU (AX)(R13*8), Y10     // Y10 = first-R9-qwords mask, for the windows
	VMOVDQU 16(AX)(R13*4), X11   // X11 = first-R9-dwords mask, for at and the bounds
	VMOVAPD Y13, Y0
	VMOVAPD Y14, Y4
	LEAQ    (DX)(BX*8), AX
	MOVQ    R10, R8
	MOVQ    R11, R12

colwinI:
	MOVLQSX    (R8), R9
	VMASKMOVPD (AX)(R9*8), Y10, Y8
	VMAXPD     Y0, Y8, Y0
	VMINPD     Y4, Y8, Y4
	ADDQ       $4, R8
	DECQ       R12
	JNZ        colwinI

	MOVQ       at+16(FP), R9
	VMASKMOVPS (R9)(BX*4), X11, X9 // the column's bound lanes; masked-out ones 0
	VMOVAPS    X11, X1
	VXORPS     X8, X8, X8
	VGATHERDPS X1, (SI)(X9*4), X8  // u, masked-out lanes +0
	VMOVAPS    X11, X2
	VXORPS     X3, X3, X3
	VGATHERDPS X2, (DI)(X9*4), X3  // l
	VCVTPS2PD  X8, Y8
	VCVTPS2PD  X3, Y9
	VCMPPD     $0x1E, Y8, Y0, Y0
	VCMPPD     $0x11, Y9, Y4, Y4
	VORPD      Y4, Y0, Y0
	VORPD      Y0, Y12, Y12
	ADDQ       $4, BX
	JMP        colI

doneI:
	VMOVMSKPD Y12, AX
	VZEROUPPER
	TESTL AX, AX
	SETEQ ret+56(FP)
	RET

// func boundsInside32KernelAVX2(upper, lower, childUpper, childLower *float32, n, rows int) bool
//
// The row enclosure test: each step loads 8 float32 lanes of the child
// row's upper and lower bounds and compares them with the parent's
// straight from memory, cu GT_OQ u and cl LT_OQ l, ORing both into Y0.
// The n mod 8 tail loads all four operands through VMASKMOVPS; masked-
// out lanes are +0 on both sides, which compare inside. Y0 is tested
// once, after the last row. BX counts lanes into the row and the
// bounds; R8 and R9 step a row (n lanes) at a time.
TEXT ·boundsInside32KernelAVX2(SB), NOSPLIT, $0-49
	MOVQ upper+0(FP), SI
	MOVQ lower+8(FP), DI
	MOVQ childUpper+16(FP), R8
	MOVQ childLower+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ rows+40(FP), R12

	MOVQ CX, R10                 // R10 = row stride in lanes
	MOVQ CX, R13
	ANDQ $7, R13                 // R13 = tail lanes (n mod 8)
	SUBQ R13, CX                 // CX = lanes covered by whole 8-lane steps
	LEAQ tailmask<>(SB), AX
	MOVQ $8, BX
	SUBQ R13, BX
	VMOVDQU (AX)(BX*4), Y10      // Y10 = first-R13-dwords mask
	VXORPS  Y0, Y0, Y0           // Y0 = every outside mask so far

rowB:
	XORQ BX, BX
	CMPQ BX, CX
	JAE  tailB

stepB:
	VMOVUPS (R8)(BX*4), Y1       // cu
	VMOVUPS (R9)(BX*4), Y2       // cl
	VCMPPS  $0x1E, (SI)(BX*4), Y1, Y3 // cu > u
	VCMPPS  $0x11, (DI)(BX*4), Y2, Y4 // cl < l
	VORPS   Y4, Y3, Y3
	VORPS   Y3, Y0, Y0
	ADDQ    $8, BX
	CMPQ    BX, CX
	JB      stepB

tailB:
	TESTQ R13, R13
	JZ    nextB
	VMASKMOVPS (R8)(BX*4), Y10, Y1
	VMASKMOVPS (R9)(BX*4), Y10, Y2
	VMASKMOVPS (SI)(BX*4), Y10, Y5
	VMASKMOVPS (DI)(BX*4), Y10, Y6
	VCMPPS     $0x1E, Y5, Y1, Y3
	VCMPPS     $0x11, Y6, Y2, Y4
	VORPS      Y4, Y3, Y3
	VORPS      Y3, Y0, Y0

nextB:
	LEAQ (R8)(R10*4), R8
	LEAQ (R9)(R10*4), R9
	DECQ R12
	JNZ  rowB
	VMOVMSKPS Y0, AX
	VZEROUPPER
	TESTL AX, AX
	SETEQ ret+48(FP)
	RET

// func expandKernelAVX2(upper, lower, s *float64, n int)
//
// Band expansion: Go's `VMAXPD u, v, dst` is Intel's VMAXPD dst, v, u,
// which is (v > u) ? v : u per lane — u on NaN and on equal zeros, as
// the scalar `if v > u` — and VMINPD likewise with <. The n mod 4 tail
// is loaded and stored through the tail mask; masked-out lanes are
// neither read nor written (nor fault).
TEXT ·expandKernelAVX2(SB), NOSPLIT, $0-32
	MOVQ upper+0(FP), SI
	MOVQ lower+8(FP), DI
	MOVQ s+16(FP), DX
	MOVQ n+24(FP), CX

	MOVQ CX, R13
	ANDQ $3, R13                 // R13 = tail lanes (n mod 4)
	SUBQ R13, CX
	SHLQ $3, CX                  // CX = bytes covered by whole 4-lane steps
	XORQ BX, BX                  // BX = byte offset into s and both bounds
	CMPQ BX, CX
	JAE  tailE

stepE:
	VMOVUPD (DX)(BX*1), Y1       // v
	VMAXPD  (SI)(BX*1), Y1, Y2   // (v > u) ? v : u
	VMINPD  (DI)(BX*1), Y1, Y3   // (v < l) ? v : l
	VMOVUPD Y2, (SI)(BX*1)
	VMOVUPD Y3, (DI)(BX*1)
	ADDQ $32, BX
	CMPQ BX, CX
	JB   stepE

tailE:
	TESTQ R13, R13
	JZ    doneE
	LEAQ tailmask<>(SB), AX
	MOVQ $4, R9
	SUBQ R13, R9
	VMOVDQU    (AX)(R9*8), Y10   // Y10 = first-R13-lanes mask
	VMASKMOVPD (DX)(BX*1), Y10, Y1
	VMASKMOVPD (SI)(BX*1), Y10, Y2
	VMASKMOVPD (DI)(BX*1), Y10, Y3
	VMAXPD     Y2, Y1, Y2
	VMINPD     Y3, Y1, Y3
	VMASKMOVPD Y2, Y10, (SI)(BX*1)
	VMASKMOVPD Y3, Y10, (DI)(BX*1)

doneE:
	VZEROUPPER
	RET

// EXCURSIONSUM adds the excursions of the 4 lanes v=Y1 outside
// [l, u] to the running sums ACC: LANES with VADDPD where VMAXPD was.
#define EXCURSIONSUM(u, l, ACC) \
	EXCURSION(u, l); \
	VADDPD  Y4, ACC, ACC

// func widthIncreasePairAVX2(aUpper, aLower, bUpper, bLower, s *float64, n int) (sa, sb float64)
//
// Both bands' width increases in one pass over s: each step loads v
// once and adds its excursions outside band a into Y0 and outside band
// b into Y7, slot i mod 4 taking lane i. Masked-out tail lanes load +0
// into v and every bound, whose excursion is +0, and a sum plus +0 is
// the sum. Each side's slots are then added (s0+s2)+(s1+s3).
TEXT ·widthIncreasePairAVX2(SB), NOSPLIT, $0-64
	MOVQ aUpper+0(FP), SI
	MOVQ aLower+8(FP), DI
	MOVQ bUpper+16(FP), R8
	MOVQ bLower+24(FP), R9
	MOVQ s+32(FP), DX
	MOVQ n+40(FP), CX

	MOVQ CX, R13
	ANDQ $3, R13                 // R13 = tail lanes (n mod 4)
	SUBQ R13, CX
	SHLQ $3, CX                  // CX = bytes covered by whole 4-lane steps
	VXORPD Y0, Y0, Y0            // Y0 = band a's sums, +0 seeded
	VXORPD Y7, Y7, Y7            // Y7 = band b's sums
	XORQ   BX, BX                // BX = byte offset into s and every bound
	CMPQ   BX, CX
	JAE    tailP

stepP:
	VMOVUPD (DX)(BX*1), Y1       // v
	VMOVUPD (SI)(BX*1), Y2
	VMOVUPD (DI)(BX*1), Y3
	EXCURSIONSUM(Y2, Y3, Y0)
	VMOVUPD (R8)(BX*1), Y9
	VMOVUPD (R9)(BX*1), Y10
	EXCURSIONSUM(Y9, Y10, Y7)
	ADDQ $32, BX
	CMPQ BX, CX
	JB   stepP

tailP:
	TESTQ R13, R13
	JZ    reduceP
	LEAQ tailmask<>(SB), AX
	MOVQ $4, R10
	SUBQ R13, R10
	VMOVDQU    (AX)(R10*8), Y11  // Y11 = first-R13-lanes mask
	VMASKMOVPD (DX)(BX*1), Y11, Y1
	VMASKMOVPD (SI)(BX*1), Y11, Y2
	VMASKMOVPD (DI)(BX*1), Y11, Y3
	EXCURSIONSUM(Y2, Y3, Y0)
	VMASKMOVPD (R8)(BX*1), Y11, Y9
	VMASKMOVPD (R9)(BX*1), Y11, Y10
	EXCURSIONSUM(Y9, Y10, Y7)

reduceP:
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0      // (s0+s2, s1+s3)
	VSHUFPD      $1, X0, X0, X1
	VADDSD       X1, X0, X0
	VEXTRACTF128 $1, Y7, X1
	VADDPD       X1, X7, X7
	VSHUFPD      $1, X7, X7, X1
	VADDSD       X1, X7, X7
	VMOVSD       X0, sa+48(FP)
	VMOVSD       X7, sb+56(FP)
	VZEROUPPER
	RET

// func cpuidAsm(op, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL op+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
