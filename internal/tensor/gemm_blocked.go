package tensor

import "parsec/internal/tensor/pool"

// Cache-blocked packed GEMM (DESIGN.md §8, §13) of C += A^T*B, the
// dgemm('T','N') of Fig 1. The triple loop is tiled BLIS-style over
// (n, k, m) with block sizes (gemmNC, gemmKC, gemmMC); inside a block,
// panels of A^T and B are packed into contiguous scratch laid out in
// micro-panel strips, so the register-blocked micro-kernel runs on
// unit-stride data. The micro-kernel comes from the active dispatch tier
// (kernel_tier.go): an 8x16 zmm FMA block on AVX-512 hardware, a 4x8
// AVX2+FMA block below that, else a portable 4x4 block of scalar
// accumulators. Tiny products take the unpacked direct path in
// matrix.go (the water tiles are 2–9 wide; packing would cost more than
// it saves).
//
// Who moves what on the two assembly tiers: a strip of either operand is
// kc rows of mr or nr contiguous doubles, and packPanel hands a full one
// to one assembly loop (packStrip); edge strips keep the Go loop, which
// also serves the portable tier. A full mr x nr tile is accumulated into
// C by the micro-kernel itself; an edge tile goes through a stack block
// that a Go loop trims.
//
// The n loop accepts an arbitrary column window [j0, j1), which is how
// GemmP (gemm_parallel.go) splits one product across a worker team:
// every C element is still accumulated by exactly one part in the same
// k order, so a split product is bitwise identical to a serial one.
const (
	gemmMR = 4 // portable and AVX2 micro-kernel rows
	gemmNR = 4 // portable micro-kernel cols
	// gemmNRAsm is the AVX2 micro-kernel width: eight columns, two YMM
	// accumulators per row.
	gemmNRAsm = 8
	// gemmMR512 x gemmNR512 is the AVX-512 micro-kernel: eight rows of
	// sixteen columns, two ZMM accumulators per row.
	gemmMR512 = 8
	gemmNR512 = 16
	// gemmMC x gemmKC is the packed A panel (256 KiB, L2-resident).
	gemmMC = 128
	gemmKC = 256
	// gemmKC x gemmNC bounds the packed B panel (4 MiB, L3-resident).
	gemmNC = 2048
	// gemmBlockCutoff is the m*n*k product below which the direct loops
	// win; 32^3 keeps every water-sized tile on the unpacked path.
	gemmBlockCutoff = 32 * 32 * 32
)

// gemmTierShape returns the (mr, nr) register block of the active tier.
func gemmTierShape() (mr, nr int) {
	switch activeTier {
	case TierAVX512:
		return gemmMR512, gemmNR512
	case TierAVX2:
		return gemmMR, gemmNRAsm
	default:
		return gemmMR, gemmNR
	}
}

// gemmBlockedCols runs the blocked kernel over the C column window
// [j0, j1), drawing packing scratch from loc (nil means the shared
// pool). It is the unit of intra-task parallelism: GemmP runs disjoint
// windows concurrently, each on its executing worker's scratch shard.
//
// A born-packed operand (layout.go) that is exactly the panel this call
// would pack — an A panel of the tier's mr, a B panel of its nr with j0
// on the strip grid, k one packed block — is handed to the micro-kernel
// in place: the panel of block (ic, jc) starts at strip ic/mr or jc/nr,
// because gemmMC and gemmNC are multiples of every strip width. Any
// other panel is unpacked to row-major scratch first and packed as
// usual.
func gemmBlockedCols(a, b, c *Matrix, j0, j1 int, loc *pool.Local) {
	m, k := a.Cols, a.Rows
	tier := activeTier
	mr, nr := gemmTierShape()
	strips := tier != TierPortable
	aIn := panelOperand(a, PanelA, mr, k)
	bIn := j0%nr == 0 && panelOperand(b, PanelB, nr, k)
	if !aIn && a.Layout.Kind != RowMajor {
		ra, buf := rowMajorOperand(a, loc)
		defer loc.Put(buf)
		a = &ra
	}
	if !bIn && b.Layout.Kind != RowMajor {
		rb, buf := rowMajorOperand(b, loc)
		defer loc.Put(buf)
		b = &rb
	}

	// Packing scratch, recycled through the worker-local shard when one
	// is supplied, else the shared size-class pool.
	ncMax := min2(j1-j0, gemmNC)
	kcMax := min2(k, gemmKC)
	mcMax := min2(m, gemmMC)
	var aPack, bPack []float64
	if !aIn {
		aPack = loc.Get(roundUp(mcMax, mr) * kcMax)
		defer loc.Put(aPack)
	}
	if !bIn {
		bPack = loc.Get(roundUp(ncMax, nr) * kcMax)
		defer loc.Put(bPack)
	}

	for jc := j0; jc < j1; jc += gemmNC {
		ncEff := min2(gemmNC, j1-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kcEff := min2(gemmKC, k-pc)
			bp := bPack
			if bIn {
				bp = b.Data[jc/nr*kcEff*nr:]
			} else {
				packPanel(b, pc, jc, kcEff, ncEff, nr, strips, bPack)
			}
			for ic := 0; ic < m; ic += gemmMC {
				mcEff := min2(gemmMC, m-ic)
				ap := aPack
				if aIn {
					ap = a.Data[ic/mr*kcEff*mr:]
				} else {
					packPanel(a, pc, ic, kcEff, mcEff, mr, strips, aPack)
				}
				switch tier {
				case TierAVX512:
					gemmMacroAsm512(ap, bp, c, ic, jc, mcEff, ncEff, kcEff)
				case TierAVX2:
					gemmMacroAsm(ap, bp, c, ic, jc, mcEff, ncEff, kcEff)
				default:
					gemmMacro(ap, bp, c, ic, jc, mcEff, ncEff, kcEff)
				}
			}
		}
	}
}

func roundUp(n, q int) int { return (n + q - 1) / q * q }

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// packStrip packs one full strip whose rows are contiguous in the
// source: dst[p*w+j] = src[p*ld+j] for p in [0, kc), j in [0, w), with
// the assembly loop of width w (4, 8 or 16; asm tiers only). The two
// index expressions are the bounds checks the assembly does not have.
func packStrip(w, kc int, src []float64, ld int, dst []float64) {
	_ = src[(kc-1)*ld+w-1]
	_ = dst[kc*w-1]
	switch w {
	case 4:
		packStrip4(int64(kc), &src[0], int64(ld)*8, &dst[0])
	case 8:
		packStrip8(int64(kc), &src[0], int64(ld)*8, &dst[0])
	case 16:
		packStrip16(int64(kc), &src[0], int64(ld)*8, &dst[0])
	default:
		panic("tensor: packStrip width")
	}
}

// packPanel packs the (pc:pc+kc, x0:x0+w) block of the row-major x
// into dst as s-wide column strips, each laid out k-major:
// dst[t*kc*s + p*s + j] = x[pc+p][x0+t*s+j], the short final strip
// zero-padded so the micro-kernel never branches on its width. It packs
// both operands of C += A^T*B: the mr-row strips of A^T are mr-wide
// column strips of A, and the nr-column strips of B are nr-wide column
// strips of B. strips sends every full strip through packStrip.
func packPanel(x *Matrix, pc, x0, kc, w, s int, strips bool, dst []float64) {
	ld := x.Cols
	for t := 0; t*s < w; t++ {
		j0 := x0 + t*s
		cols := min2(s, x0+w-j0)
		out := dst[t*kc*s:]
		if strips && cols == s {
			packStrip(s, kc, x.Data[pc*ld+j0:], ld, out)
			continue
		}
		for p := 0; p < kc; p++ {
			o := out[p*s : (p+1)*s]
			copy(o, x.Data[(pc+p)*ld+j0:(pc+p)*ld+j0+cols])
			for j := cols; j < s; j++ {
				o[j] = 0
			}
		}
	}
}

// gemmMacroAsm runs the AVX2 micro-kernel over one packed panel pair,
// accumulating into the C block at (ic, jc). A full 4x8 tile is added
// into C by the kernel; an edge tile is computed in full into a stack
// block that the write-back loop trims.
func gemmMacroAsm(aPack, bPack []float64, c *Matrix, ic, jc, mcEff, ncEff, kcEff int) {
	const nr = gemmNRAsm
	ldc := c.Cols
	var acc [gemmMR * nr]float64
	for jr := 0; jr*nr < ncEff; jr++ {
		j0 := jc + jr*nr
		cols := min2(nr, jc+ncEff-j0)
		bp := bPack[jr*kcEff*nr : (jr+1)*kcEff*nr]
		for ir := 0; ir*gemmMR < mcEff; ir++ {
			i0 := ic + ir*gemmMR
			rows := min2(gemmMR, ic+mcEff-i0)
			ap := aPack[ir*kcEff*gemmMR : (ir+1)*kcEff*gemmMR]
			if rows == gemmMR && cols == nr {
				// The slice expression is the kernel's bounds check.
				ctile := c.Data[i0*ldc+j0 : (i0+gemmMR-1)*ldc+j0+nr]
				gemmAsm4x8C(int64(kcEff), &ap[0], &bp[0], &ctile[0], int64(ldc)*8)
				continue
			}
			gemmAsm4x8(int64(kcEff), &ap[0], &bp[0], &acc[0])
			for r := 0; r < rows; r++ {
				crow := c.Data[(i0+r)*ldc+j0:]
				for j := 0; j < cols; j++ {
					crow[j] += acc[r*nr+j]
				}
			}
		}
	}
}

// gemmMacroAsm512 runs the AVX-512 micro-kernel over one packed panel
// pair, accumulating into the C block at (ic, jc). A full 8x16 tile is
// added into C by the kernel; an edge tile is computed in full into a
// stack block that the write-back loop trims.
func gemmMacroAsm512(aPack, bPack []float64, c *Matrix, ic, jc, mcEff, ncEff, kcEff int) {
	const (
		mr = gemmMR512
		nr = gemmNR512
	)
	ldc := c.Cols
	var acc [mr * nr]float64
	for jr := 0; jr*nr < ncEff; jr++ {
		j0 := jc + jr*nr
		cols := min2(nr, jc+ncEff-j0)
		bp := bPack[jr*kcEff*nr : (jr+1)*kcEff*nr]
		for ir := 0; ir*mr < mcEff; ir++ {
			i0 := ic + ir*mr
			rows := min2(mr, ic+mcEff-i0)
			ap := aPack[ir*kcEff*mr : (ir+1)*kcEff*mr]
			if rows == mr && cols == nr {
				// The slice expression is the kernel's bounds check.
				ctile := c.Data[i0*ldc+j0 : (i0+mr-1)*ldc+j0+nr]
				gemmAsm8x16C(int64(kcEff), &ap[0], &bp[0], &ctile[0], int64(ldc)*8)
				continue
			}
			gemmAsm8x16(int64(kcEff), &ap[0], &bp[0], &acc[0])
			for r := 0; r < rows; r++ {
				crow := c.Data[(i0+r)*ldc+j0:]
				for j := 0; j < cols; j++ {
					crow[j] += acc[r*nr+j]
				}
			}
		}
	}
}

// gemmMacro is the portable macro loop over the packed panels with the
// 4x4 scalar micro-kernel.
func gemmMacro(aPack, bPack []float64, c *Matrix, ic, jc, mcEff, ncEff, kcEff int) {
	ldc := c.Cols
	for jr := 0; jr*gemmNR < ncEff; jr++ {
		j0 := jc + jr*gemmNR
		cols := min2(gemmNR, jc+ncEff-j0)
		bp := bPack[jr*kcEff*gemmNR : (jr+1)*kcEff*gemmNR]
		for ir := 0; ir*gemmMR < mcEff; ir++ {
			i0 := ic + ir*gemmMR
			rows := min2(gemmMR, ic+mcEff-i0)
			ap := aPack[ir*kcEff*gemmMR : (ir+1)*kcEff*gemmMR]
			if rows == gemmMR && cols == gemmNR {
				gemmMicro4x4(ap, bp,
					c.Data[(i0+0)*ldc+j0:(i0+0)*ldc+j0+gemmNR],
					c.Data[(i0+1)*ldc+j0:(i0+1)*ldc+j0+gemmNR],
					c.Data[(i0+2)*ldc+j0:(i0+2)*ldc+j0+gemmNR],
					c.Data[(i0+3)*ldc+j0:(i0+3)*ldc+j0+gemmNR])
				continue
			}
			var acc [gemmMR * gemmNR]float64
			gemmMicroAcc(ap, bp, &acc)
			for r := 0; r < rows; r++ {
				crow := c.Data[(i0+r)*ldc+j0:]
				for j := 0; j < cols; j++ {
					crow[j] += acc[r*gemmNR+j]
				}
			}
		}
	}
}

// gemmMicro4x4 is the portable inner kernel: a full 4x4 block of C held
// in sixteen scalar accumulators while one packed A strip and one packed
// B strip stream through once. The len-guarded reslicing walk keeps every
// access bounds-check-free.
func gemmMicro4x4(a, b []float64, c0, c1, c2, c3 []float64) {
	var s00, s01, s02, s03 float64
	var s10, s11, s12, s13 float64
	var s20, s21, s22, s23 float64
	var s30, s31, s32, s33 float64
	for len(a) >= 4 && len(b) >= 4 {
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		s00 += a0 * b0
		s01 += a0 * b1
		s02 += a0 * b2
		s03 += a0 * b3
		s10 += a1 * b0
		s11 += a1 * b1
		s12 += a1 * b2
		s13 += a1 * b3
		s20 += a2 * b0
		s21 += a2 * b1
		s22 += a2 * b2
		s23 += a2 * b3
		s30 += a3 * b0
		s31 += a3 * b1
		s32 += a3 * b2
		s33 += a3 * b3
		a = a[4:]
		b = b[4:]
	}
	if len(c0) < 4 || len(c1) < 4 || len(c2) < 4 || len(c3) < 4 {
		panic("tensor: gemmMicro4x4 short C rows")
	}
	c0[0] += s00
	c0[1] += s01
	c0[2] += s02
	c0[3] += s03
	c1[0] += s10
	c1[1] += s11
	c1[2] += s12
	c1[3] += s13
	c2[0] += s20
	c2[1] += s21
	c2[2] += s22
	c2[3] += s23
	c3[0] += s30
	c3[1] += s31
	c3[2] += s32
	c3[3] += s33
}

// gemmMicroAcc is gemmMicro4x4 writing into a caller-held accumulator
// block, for edge tiles whose C rows or columns are short.
func gemmMicroAcc(a, b []float64, acc *[gemmMR * gemmNR]float64) {
	var s00, s01, s02, s03 float64
	var s10, s11, s12, s13 float64
	var s20, s21, s22, s23 float64
	var s30, s31, s32, s33 float64
	for len(a) >= 4 && len(b) >= 4 {
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		s00 += a0 * b0
		s01 += a0 * b1
		s02 += a0 * b2
		s03 += a0 * b3
		s10 += a1 * b0
		s11 += a1 * b1
		s12 += a1 * b2
		s13 += a1 * b3
		s20 += a2 * b0
		s21 += a2 * b1
		s22 += a2 * b2
		s23 += a2 * b3
		s30 += a3 * b0
		s31 += a3 * b1
		s32 += a3 * b2
		s33 += a3 * b3
		a = a[4:]
		b = b[4:]
	}
	acc[0], acc[1], acc[2], acc[3] = s00, s01, s02, s03
	acc[4], acc[5], acc[6], acc[7] = s10, s11, s12, s13
	acc[8], acc[9], acc[10], acc[11] = s20, s21, s22, s23
	acc[12], acc[13], acc[14], acc[15] = s30, s31, s32, s33
}
