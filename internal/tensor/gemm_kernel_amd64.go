//go:build amd64 && !purego

package tensor

// gemmAsm4x8 is the AVX2+FMA micro-kernel (gemm_kernel_amd64.s): it
// fills a contiguous 4x8 accumulator block from packed kc x 4 A and
// kc x 8 B panels.
//
//go:noescape
func gemmAsm4x8(kc int64, a, b, acc *float64)

// gemmAsm8x16 is the AVX-512F micro-kernel (gemm_kernel_amd64.s): it
// fills a contiguous 8x16 accumulator block from packed kc x 8 A and
// kc x 16 B panels using zmm FMA.
//
//go:noescape
func gemmAsm8x16(kc int64, a, b, acc *float64)

// gemmAsm4x8C and gemmAsm8x16C are the same kernels for a full tile:
// the block is added straight into the C rows starting at c, ldcBytes
// apart, instead of being stored for the caller to add.
//
//go:noescape
func gemmAsm4x8C(kc int64, a, b, c *float64, ldcBytes int64)

//go:noescape
func gemmAsm8x16C(kc int64, a, b, c *float64, ldcBytes int64)

// gemmTN4x8 is the direct-path dgemm('T','N') entry of both assembly
// tiers (gemm_kernel_amd64.s): for strips consecutive 8-column blocks of
// the four C rows at c, ldcBytes apart, it adds alpha*A^T*B over k rows
// of A (four doubles at a, ldaBytes apart) and of B (from b, ldbBytes
// apart), bitwise as gemmTNGo does. k and strips must be positive; the
// caller bounds-checks (gemmTN in matrix.go).
//
//go:noescape
func gemmTN4x8(k, strips int64, a *float64, ldaBytes int64, b *float64, ldbBytes int64, c *float64, ldcBytes int64, alpha float64)

// packStrip4, packStrip8 and packStrip16 copy kc rows of 4, 8 or 16
// contiguous doubles, ldBytes apart, into one packed strip at dst,
// prefetching nine rows ahead. kc must be positive; the caller
// guarantees every row lies inside src's slice (packStrip in
// gemm_blocked.go).
//
//go:noescape
func packStrip4(kc int64, src *float64, ldBytes int64, dst *float64)

//go:noescape
func packStrip8(kc int64, src *float64, ldBytes int64, dst *float64)

//go:noescape
func packStrip16(kc int64, src *float64, ldBytes int64, dst *float64)

// fillRandomAsm writes n (a positive multiple of 8) SplitMix64 doubles
// to dst, eight streams at a time; lanes[i] is the generator state of
// element i. See Tile4.FillRandom.
//
//go:noescape
func fillRandomAsm(n int64, dst *float64, lanes *[8]uint64, scale float64)

// fillStrip8 and fillStrip16 write one born-packed panel strip (see
// Tile4.fillPanel): kc rows of 8 or 16 SplitMix64 doubles to dst, row
// after row. lanes[i] is the generator state of the row's element i
// (element 8+i of a 16-wide row is 8 states on) and every lane steps by
// rowStep per row. kc must be positive.
//
//go:noescape
func fillStrip8(kc int64, dst *float64, lanes *[8]uint64, rowStep uint64, scale float64)

//go:noescape
func fillStrip16(kc int64, dst *float64, lanes *[8]uint64, rowStep uint64, scale float64)

// axpyAsm accumulates dst[i] += scale*src[i] for i in [0, n) with
// unfused 256-bit multiply and add, so the result is bitwise identical
// to the scalar loop. n must be a positive multiple of 8.
//
//go:noescape
func axpyAsm(n int64, dst, src *float64, scale float64)

// scaleAsm assigns dst[i] = scale*src[i] for i in [0, n). n must be a
// positive multiple of 8.
//
//go:noescape
func scaleAsm(n int64, dst, src *float64, scale float64)

func cpuidRaw(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint64

// hwKernelTier is the best tier this CPU and OS can run, probed once.
var hwTierDetected = probeHWTier()

func hwKernelTier() KernelTier { return hwTierDetected }

func probeHWTier() KernelTier {
	maxID, _, _, _ := cpuidRaw(0, 0)
	if maxID < 7 {
		return TierPortable
	}
	_, _, ecx1, _ := cpuidRaw(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return TierPortable
	}
	xcr0 := xgetbv0()
	// XCR0 bits 1 (SSE) and 2 (AVX): the OS saves YMM state.
	if xcr0&0x6 != 0x6 {
		return TierPortable
	}
	_, ebx7, _, _ := cpuidRaw(7, 0)
	const (
		avx2Bit     = 1 << 5
		avx512fBit  = 1 << 16
		avx512dqBit = 1 << 17
	)
	if ebx7&avx2Bit == 0 {
		return TierPortable
	}
	// AVX-512 needs the F foundation for the GEMM block, DQ for the
	// fill's 64-bit multiply and unsigned convert (an F-only part stays
	// on the AVX2 rung), plus XCR0 bits 5-7 (opmask, ZMM_Hi256,
	// Hi16_ZMM): the OS saves full zmm state.
	const avx512Bits = avx512fBit | avx512dqBit
	if ebx7&avx512Bits == avx512Bits && xcr0&0xe0 == 0xe0 {
		return TierAVX512
	}
	return TierAVX2
}
