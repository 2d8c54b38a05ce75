// Assembly kernels for the cache-blocked packed GEMM (gemm_blocked.go),
// the direct TN path (matrix.go), the accumulate kernels (axpy.go) and
// the input fill (tile4.go, layout.go): the AVX2+FMA 4x8 and AVX-512
// 8x16 GEMM blocks, each storing to a stack block or accumulating
// straight into C; the strip packers that feed them; the unfused 4x8 TN
// block below the blocking cutoff; the 256-bit unfused axpy/scale
// loops; and the eight-lane SplitMix64 fill, row-major or straight into
// panel strips. Entry is gated by probeHWTier (CPUID + XCR0); every
// unsupported configuration runs the pure-Go paths.

//go:build amd64 && !purego

#include "textflag.h"

// ZERO4X8 clears the 4x8 accumulator block Y0..Y7 (two YMM per row).
#define ZERO4X8 \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7

// STEP4X8 is one k step of the 4x8 block: Y12/Y13 take the eight b
// values at (DI), Y14 each of the four a values at (SI) in turn.
#define STEP4X8 \
	VMOVUPD (DI), Y12; \
	VMOVUPD 32(DI), Y13; \
	VBROADCASTSD (SI), Y14; \
	VFMADD231PD Y12, Y14, Y0; \
	VFMADD231PD Y13, Y14, Y1; \
	VBROADCASTSD 8(SI), Y14; \
	VFMADD231PD Y12, Y14, Y2; \
	VFMADD231PD Y13, Y14, Y3; \
	VBROADCASTSD 16(SI), Y14; \
	VFMADD231PD Y12, Y14, Y4; \
	VFMADD231PD Y13, Y14, Y5; \
	VBROADCASTSD 24(SI), Y14; \
	VFMADD231PD Y12, Y14, Y6; \
	VFMADD231PD Y13, Y14, Y7; \
	ADDQ $32, SI; \
	ADDQ $64, DI

// ADDROW4X8 adds the accumulator row (ya, yb) into the eight doubles at
// (DX) and steps DX to the next C row, R8 bytes on.
#define ADDROW4X8(ya, yb) \
	VADDPD  (DX), ya, ya; \
	VADDPD  32(DX), yb, yb; \
	VMOVUPD ya, (DX); \
	VMOVUPD yb, 32(DX); \
	ADDQ    R8, DX

// func gemmAsm4x8(kc int64, a, b, acc *float64)
//
// Computes a full 4x8 block acc[r*8+j] = sum_p a[p*4+r] * b[p*8+j] over
// the packed panels a (kc x 4, row-minor) and b (kc x 8). The caller
// accumulates acc into C, trimming an edge tile.
TEXT ·gemmAsm4x8(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ acc+24(FP), DX

	ZERO4X8
	TESTQ CX, CX
	JZ    done

loop:
	STEP4X8
	DECQ CX
	JNZ  loop

done:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET

// func gemmAsm4x8C(kc int64, a, b, c *float64, ldcBytes int64)
//
// gemmAsm4x8 for a full tile: the block is added into the four C rows
// of eight doubles starting at c, ldcBytes apart, one rounding per
// element exactly like the caller's c[j] += acc[j] after gemmAsm4x8.
TEXT ·gemmAsm4x8C(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldcBytes+32(FP), R8

	ZERO4X8
	TESTQ CX, CX
	JZ    done

loop:
	STEP4X8
	DECQ CX
	JNZ  loop

done:
	ADDROW4X8(Y0, Y1)
	ADDROW4X8(Y2, Y3)
	ADDROW4X8(Y4, Y5)
	ADDROW4X8(Y6, Y7)
	VZEROUPPER
	RET

// ZERO8X16 clears the 8x16 accumulator block Z0..Z15 (two ZMM per row).
#define ZERO8X16 \
	VPXORQ Z0, Z0, Z0; \
	VPXORQ Z1, Z1, Z1; \
	VPXORQ Z2, Z2, Z2; \
	VPXORQ Z3, Z3, Z3; \
	VPXORQ Z4, Z4, Z4; \
	VPXORQ Z5, Z5, Z5; \
	VPXORQ Z6, Z6, Z6; \
	VPXORQ Z7, Z7, Z7; \
	VPXORQ Z8, Z8, Z8; \
	VPXORQ Z9, Z9, Z9; \
	VPXORQ Z10, Z10, Z10; \
	VPXORQ Z11, Z11, Z11; \
	VPXORQ Z12, Z12, Z12; \
	VPXORQ Z13, Z13, Z13; \
	VPXORQ Z14, Z14, Z14; \
	VPXORQ Z15, Z15, Z15

// STEP8X16 is one k step of the 8x16 block: Z16/Z17 take the sixteen b
// values at (DI), Z18 each of the eight a values at (SI) in turn.
#define STEP8X16 \
	VMOVUPD (DI), Z16; \
	VMOVUPD 64(DI), Z17; \
	VBROADCASTSD (SI), Z18; \
	VFMADD231PD Z16, Z18, Z0; \
	VFMADD231PD Z17, Z18, Z1; \
	VBROADCASTSD 8(SI), Z18; \
	VFMADD231PD Z16, Z18, Z2; \
	VFMADD231PD Z17, Z18, Z3; \
	VBROADCASTSD 16(SI), Z18; \
	VFMADD231PD Z16, Z18, Z4; \
	VFMADD231PD Z17, Z18, Z5; \
	VBROADCASTSD 24(SI), Z18; \
	VFMADD231PD Z16, Z18, Z6; \
	VFMADD231PD Z17, Z18, Z7; \
	VBROADCASTSD 32(SI), Z18; \
	VFMADD231PD Z16, Z18, Z8; \
	VFMADD231PD Z17, Z18, Z9; \
	VBROADCASTSD 40(SI), Z18; \
	VFMADD231PD Z16, Z18, Z10; \
	VFMADD231PD Z17, Z18, Z11; \
	VBROADCASTSD 48(SI), Z18; \
	VFMADD231PD Z16, Z18, Z12; \
	VFMADD231PD Z17, Z18, Z13; \
	VBROADCASTSD 56(SI), Z18; \
	VFMADD231PD Z16, Z18, Z14; \
	VFMADD231PD Z17, Z18, Z15; \
	ADDQ $64, SI; \
	ADDQ $128, DI

// ADDROW8X16 adds the accumulator row (za, zb) into the sixteen doubles
// at (DX) and steps DX to the next C row, R8 bytes on.
#define ADDROW8X16(za, zb) \
	VADDPD  (DX), za, za; \
	VADDPD  64(DX), zb, zb; \
	VMOVUPD za, (DX); \
	VMOVUPD zb, 64(DX); \
	ADDQ    R8, DX

// func gemmAsm8x16(kc int64, a, b, acc *float64)
//
// Computes a full 8x16 block acc[r*16+j] = sum_p a[p*8+r] * b[p*16+j]
// over the packed panels a (kc x 8, row-minor) and b (kc x 16), the
// AVX-512 tier above the 4x8 AVX2 kernel. Per C element the FMA
// sequence is identical to gemmAsm4x8's (ascending p, one fused
// multiply-add each), so the two tiers produce bitwise-equal results.
// The GEMM entries need only AVX-512F.
TEXT ·gemmAsm8x16(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ acc+24(FP), DX

	ZERO8X16
	TESTQ CX, CX
	JZ    done

loop:
	STEP8X16
	DECQ CX
	JNZ  loop

done:
	VMOVUPD Z0, (DX)
	VMOVUPD Z1, 64(DX)
	VMOVUPD Z2, 128(DX)
	VMOVUPD Z3, 192(DX)
	VMOVUPD Z4, 256(DX)
	VMOVUPD Z5, 320(DX)
	VMOVUPD Z6, 384(DX)
	VMOVUPD Z7, 448(DX)
	VMOVUPD Z8, 512(DX)
	VMOVUPD Z9, 576(DX)
	VMOVUPD Z10, 640(DX)
	VMOVUPD Z11, 704(DX)
	VMOVUPD Z12, 768(DX)
	VMOVUPD Z13, 832(DX)
	VMOVUPD Z14, 896(DX)
	VMOVUPD Z15, 960(DX)
	VZEROUPPER
	RET

// func gemmAsm8x16C(kc int64, a, b, c *float64, ldcBytes int64)
//
// gemmAsm8x16 for a full tile: the block is added into the eight C rows
// of sixteen doubles starting at c, ldcBytes apart, one rounding per
// element exactly like the caller's c[j] += acc[j] after gemmAsm8x16.
TEXT ·gemmAsm8x16C(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldcBytes+32(FP), R8

	ZERO8X16
	TESTQ CX, CX
	JZ    done

loop:
	STEP8X16
	DECQ CX
	JNZ  loop

done:
	ADDROW8X16(Z0, Z1)
	ADDROW8X16(Z2, Z3)
	ADDROW8X16(Z4, Z5)
	ADDROW8X16(Z6, Z7)
	ADDROW8X16(Z8, Z9)
	ADDROW8X16(Z10, Z11)
	ADDROW8X16(Z12, Z13)
	ADDROW8X16(Z14, Z15)
	VZEROUPPER
	RET

// TNROW is one C row of a gemmTN4x8 step: Y10 takes lane sel of the
// four A values in Y8, and the row (ya, yb) adds its product with the
// eight b values in Y12/Y13, multiply and add rounded separately.
#define TNROW(sel, ya, yb) \
	VPERMPD sel, Y8, Y10; \
	VMULPD  Y12, Y10, Y11; \
	VMULPD  Y13, Y10, Y9; \
	VADDPD  Y11, ya, ya; \
	VADDPD  Y9, yb, yb

// func gemmTN4x8(k, strips int64, a *float64, ldaBytes int64, b *float64, ldbBytes int64, c *float64, ldcBytes int64)
//
// The direct-path dgemm('T','N') block of both assembly tiers: C[r][j]
// += A[l][r]*B[l][j] for four C rows and strips consecutive 8-column
// strips, l ascending. A strip of C is loaded into Y0..Y7 and stays
// there across k. Per l, the four A values are loaded into Y8 (the Go
// loop's av0..av3); if all four compare equal to zero the l is skipped,
// as the Go loop's continue skips it; otherwise each C vector gets
// VMULPD then VADDPD, never an FMA. So every element sees gemmTNGo's
// operations in gemmTNGo's order and ends up the same bits. k and
// strips must be positive.
TEXT ·gemmTN4x8(SB), NOSPLIT, $0-64
	MOVQ   k+0(FP), R9
	MOVQ   strips+8(FP), R10
	MOVQ   a+16(FP), R11
	MOVQ   ldaBytes+24(FP), R12
	MOVQ   b+32(FP), R13
	MOVQ   ldbBytes+40(FP), R14
	MOVQ   c+48(FP), DX
	MOVQ   ldcBytes+56(FP), R8
	VXORPD Y14, Y14, Y14
	LEAQ   (DX)(R8*2), BX // C row 2; rows 1 and 3 index off DX and BX

tnstrip:
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD (DX)(R8*1), Y2
	VMOVUPD 32(DX)(R8*1), Y3
	VMOVUPD (BX), Y4
	VMOVUPD 32(BX), Y5
	VMOVUPD (BX)(R8*1), Y6
	VMOVUPD 32(BX)(R8*1), Y7
	MOVQ    R11, SI
	MOVQ    R13, DI
	MOVQ    R9, CX

tnloop:
	VMOVUPD   (SI), Y8
	VCMPPD    $0, Y14, Y8, Y9 // EQ_OQ: +0 and -0 are zero, NaN is not
	VMOVMSKPD Y9, AX
	CMPL      AX, $15
	JEQ       tnskip
	VMOVUPD   (DI), Y12
	VMOVUPD   32(DI), Y13
	TNROW($0x00, Y0, Y1)
	TNROW($0x55, Y2, Y3)
	TNROW($0xaa, Y4, Y5)
	TNROW($0xff, Y6, Y7)

tnskip:
	ADDQ R12, SI
	ADDQ R14, DI
	DECQ CX
	JNZ  tnloop

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (DX)(R8*1)
	VMOVUPD Y3, 32(DX)(R8*1)
	VMOVUPD Y4, (BX)
	VMOVUPD Y5, 32(BX)
	VMOVUPD Y6, (BX)(R8*1)
	VMOVUPD Y7, 32(BX)(R8*1)
	ADDQ    $64, DX
	ADDQ    $64, BX
	ADDQ    $64, R13
	DECQ    R10
	JNZ     tnstrip
	VZEROUPPER
	RET

// The strip packers copy kc rows of 4, 8 or 16 contiguous doubles from
// src, ldBytes apart, to consecutive slots at dst. The prefetch runs
// nine rows ahead (R9 = 9*ldBytes) so the strided walk over a tile that
// went cold since its READ overlaps its misses; it may run past the
// last row, which a prefetch is allowed to and a load is not.

// func packStrip4(kc int64, src *float64, ldBytes int64, dst *float64)
//
// dst[p*4+j] = src[p*ld+j] for p in [0, kc), j in [0, 4): one AVX2 A
// strip of op(A) = A^T. kc must be positive.
TEXT ·packStrip4(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ src+8(FP), SI
	MOVQ ldBytes+16(FP), R8
	MOVQ dst+24(FP), DI
	LEAQ (R8)(R8*8), R9

loop:
	PREFETCHT0 (SI)(R9*1)
	VMOVUPD (SI), Y0
	VMOVUPD Y0, (DI)
	ADDQ    R8, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER
	RET

// func packStrip8(kc int64, src *float64, ldBytes int64, dst *float64)
//
// dst[p*8+j] = src[p*ld+j] for p in [0, kc), j in [0, 8): one AVX2 B
// strip or one AVX-512 A strip. 256-bit moves, so both tiers share it.
// kc must be positive.
TEXT ·packStrip8(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ src+8(FP), SI
	MOVQ ldBytes+16(FP), R8
	MOVQ dst+24(FP), DI
	LEAQ (R8)(R8*8), R9

loop:
	PREFETCHT0 (SI)(R9*1)
	PREFETCHT0 63(SI)(R9*1)
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    R8, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER
	RET

// func packStrip16(kc int64, src *float64, ldBytes int64, dst *float64)
//
// dst[p*16+j] = src[p*ld+j] for p in [0, kc), j in [0, 16): one AVX-512
// B strip. kc must be positive.
TEXT ·packStrip16(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ src+8(FP), SI
	MOVQ ldBytes+16(FP), R8
	MOVQ dst+24(FP), DI
	LEAQ (R8)(R8*8), R9

loop:
	PREFETCHT0 (SI)(R9*1)
	PREFETCHT0 64(SI)(R9*1)
	PREFETCHT0 127(SI)(R9*1)
	VMOVUPD (SI), Z0
	VMOVUPD 64(SI), Z1
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	ADDQ    R8, SI
	ADDQ    $128, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER
	RET

// FILLCONSTS loads the SplitMix64 constants every fill entry shares:
// the two multipliers in Z2/Z3, 2^-52 in Z4 and 1.0 in Z5. The caller
// puts scale in Z6.
#define FILLCONSTS \
	MOVQ         $0xbf58476d1ce4e5b9, AX; \
	VPBROADCASTQ AX, Z2; \
	MOVQ         $0x94d049bb133111eb, AX; \
	VPBROADCASTQ AX, Z3; \
	MOVQ         $0x3cb0000000000000, AX; \
	VPBROADCASTQ AX, Z4; \
	MOVQ         $0x3ff0000000000000, AX; \
	VPBROADCASTQ AX, Z5

// SPLITMIX8 maps the eight generator states in s to their doubles in t
// (u is scratch): the SplitMix64 finalizer, then convert, times 2^-52,
// minus 1 (all three exact for a 53-bit integer, as 2*x/2^53 - 1 is in
// Go), times scale (the one rounding).
#define SPLITMIX8(s, t, u) \
	VPSRLQ     $30, s, t; \
	VPXORQ     t, s, t; \
	VPMULLQ    Z2, t, t; \
	VPSRLQ     $27, t, u; \
	VPXORQ     u, t, t; \
	VPMULLQ    Z3, t, t; \
	VPSRLQ     $31, t, u; \
	VPXORQ     u, t, t; \
	VPSRLQ     $11, t, t; \
	VCVTUQQ2PD t, t; \
	VMULPD     Z4, t, t; \
	VSUBPD     Z5, t, t; \
	VMULPD     Z6, t, t

// func fillRandomAsm(n int64, dst *float64, lanes *[8]uint64, scale float64)
//
// Eight SplitMix64 streams side by side: lane i enters holding the
// state of element i and advances by 8*gamma per iteration, so element
// e gets exactly the scalar generator's state seed + (e+1)*gamma. n
// must be a positive multiple of 8. Needs AVX-512DQ (VPMULLQ,
// VCVTUQQ2PD), which the avx512 tier requires.
TEXT ·fillRandomAsm(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ lanes+16(FP), SI
	VMOVDQU64 (SI), Z0
	VBROADCASTSD scale+24(FP), Z6
	MOVQ $0xf1bbcdcbfa53e0a8, AX // 8 * 0x9e3779b97f4a7c15 mod 2^64
	VPBROADCASTQ AX, Z1
	FILLCONSTS

loop:
	SPLITMIX8(Z0, Z8, Z9)
	VMOVUPD    Z8, (DI)
	VPADDQ     Z1, Z0, Z0
	ADDQ       $64, DI
	SUBQ       $8, CX
	JNZ        loop
	VZEROUPPER
	RET

// func fillStrip8(kc int64, dst *float64, lanes *[8]uint64, rowStep uint64, scale float64)
//
// One 8-wide born-packed strip: kc rows of eight doubles at dst, row
// after row. Lane i enters holding the state of the first row's element
// i and advances by rowStep (the row-major row length times gamma) per
// row, so every element gets the state FillRandom gives it. kc must be
// positive.
TEXT ·fillStrip8(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ lanes+16(FP), SI
	VMOVDQU64 (SI), Z0
	MOVQ rowStep+24(FP), AX
	VPBROADCASTQ AX, Z1
	VBROADCASTSD scale+32(FP), Z6
	FILLCONSTS

loop:
	SPLITMIX8(Z0, Z8, Z9)
	VMOVUPD    Z8, (DI)
	VPADDQ     Z1, Z0, Z0
	ADDQ       $64, DI
	DECQ       CX
	JNZ        loop
	VZEROUPPER
	RET

// func fillStrip16(kc int64, dst *float64, lanes *[8]uint64, rowStep uint64, scale float64)
//
// fillStrip8 for a 16-wide strip: the row's upper eight lanes (Z7) are
// the lower eight (Z0) eight states on, and both step by rowStep.
TEXT ·fillStrip16(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ lanes+16(FP), SI
	VMOVDQU64 (SI), Z0
	MOVQ $0xf1bbcdcbfa53e0a8, AX // 8 * gamma
	VPBROADCASTQ AX, Z7
	VPADDQ Z7, Z0, Z7
	MOVQ rowStep+24(FP), AX
	VPBROADCASTQ AX, Z1
	VBROADCASTSD scale+32(FP), Z6
	FILLCONSTS

loop:
	SPLITMIX8(Z0, Z8, Z9)
	SPLITMIX8(Z7, Z10, Z11)
	VMOVUPD    Z8, (DI)
	VMOVUPD    Z10, 64(DI)
	VPADDQ     Z1, Z0, Z0
	VPADDQ     Z1, Z7, Z7
	ADDQ       $128, DI
	DECQ       CX
	JNZ        loop
	VZEROUPPER
	RET

// func axpyAsm(n int64, dst, src *float64, scale float64)
//
// dst[i] += scale*src[i], eight elements per iteration. Multiply and
// add are deliberately separate (VMULPD + VADDPD, not FMA): each
// element rounds exactly like the scalar Go loop, keeping the SIMD
// accumulate path bit-identical to the portable one. n must be a
// positive multiple of 8.
TEXT ·axpyAsm(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	VBROADCASTSD scale+24(FP), Y3

axpyloop:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMULPD  Y3, Y0, Y0
	VMULPD  Y3, Y1, Y1
	VADDPD  (DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JNZ     axpyloop
	VZEROUPPER
	RET

// func scaleAsm(n int64, dst, src *float64, scale float64)
//
// dst[i] = scale*src[i], eight elements per iteration. n must be a
// positive multiple of 8.
TEXT ·scaleAsm(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	VBROADCASTSD scale+24(FP), Y3

scaleloop:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMULPD  Y3, Y0, Y0
	VMULPD  Y3, Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JNZ     scaleloop
	VZEROUPPER
	RET

// func cpuidRaw(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidRaw(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint64
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL  CX, CX
	XGETBV
	SHLQ  $32, DX
	ORQ   DX, AX
	MOVQ  AX, ret+0(FP)
	RET
