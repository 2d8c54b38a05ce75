package tensor

import "parsec/internal/tensor/pool"

// Cache-blocked packed GEMM (DESIGN.md §8, §13). The triple loop is
// tiled BLIS-style over (n, k, m) with block sizes (gemmNC, gemmKC,
// gemmMC); inside a block, panels of op(A) and op(B) are packed into
// contiguous scratch laid out in micro-panel strips, so every trans
// variant runs the same register-blocked micro-kernel on unit-stride
// data. The micro-kernel comes from the active dispatch tier
// (kernel_tier.go): an 8x16 zmm FMA block on AVX-512 hardware, a 4x8
// AVX2+FMA block below that, else a portable 4x4 block of scalar
// accumulators. Tiny products take the unpacked direct path in
// matrix.go (the water tiles are 2–9 wide; packing would cost more than
// it saves).
//
// Who moves what on the two assembly tiers: on the production call
// shape (op(A) = A^T, op(B) = B, alpha = 1, the dgemm('T','N') of Fig 1)
// a full strip is kc rows of mr or nr contiguous doubles, and packA and
// packB hand it to one assembly loop (packStrip); edge strips, alpha !=
// 1 (folded into the A packing) and the two transposing layouts keep
// the Go loops, which also serve the portable tier. A full mr x nr tile
// is accumulated into C by the micro-kernel itself; an edge tile goes
// through a stack block that a Go loop trims.
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

// gemmBlocked computes C += alpha*op(A)*op(B) over pre-beta-scaled C.
func gemmBlocked(transA, transB bool, alpha float64, a, b, c *Matrix) {
	gemmBlockedCols(transA, transB, alpha, a, b, c, 0, c.Cols, nil)
}

// gemmBlockedCols runs the blocked kernel over the C column window
// [j0, j1), drawing packing scratch from loc (nil means the shared
// pool). It is the unit of intra-task parallelism: GemmP runs disjoint
// windows concurrently, each on its executing worker's scratch shard.
//
// A born-packed operand (layout.go) that is exactly the panel this call
// would pack — an A panel of the tier's mr under transA at alpha = 1, a
// B panel of its nr under !transB with j0 on the strip grid, k one
// packed block — is handed to the micro-kernel in place: the panel of
// block (ic, jc) starts at strip ic/mr or jc/nr, because gemmMC and
// gemmNC are multiples of every strip width. Any other panel is
// unpacked to row-major scratch first and packed as usual.
func gemmBlockedCols(transA, transB bool, alpha float64, a, b, c *Matrix, j0, j1 int, loc *pool.Local) {
	m, k := opDims(a, transA)
	tier := activeTier
	mr, nr := gemmTierShape()
	strips := tier != TierPortable
	aIn := transA && alpha == 1 && panelOperand(a, PanelA, mr, k)
	bIn := !transB && j0%nr == 0 && panelOperand(b, PanelB, nr, k)
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
				packB(transB, b, pc, jc, kcEff, ncEff, nr, strips, bPack)
			}
			for ic := 0; ic < m; ic += gemmMC {
				mcEff := min2(gemmMC, m-ic)
				ap := aPack
				if aIn {
					ap = a.Data[ic/mr*kcEff*mr:]
				} else {
					packA(transA, alpha, a, ic, pc, mcEff, kcEff, mr, strips, aPack)
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

// packA copies the (ic:ic+mcEff, pc:pc+kcEff) panel of op(A), scaled by
// alpha, into dst as mr-row strips: strip s holds rows ic+s*mr.. and is
// laid out k-major, dst[s*kcEff*mr + p*mr + r] = alpha*op(A)[ic+s*mr+r,
// pc+p]. Short final strips are zero-padded so the micro-kernel never
// branches on the row count. strips sends full strips of A^T at alpha =
// 1 through packStrip (1*v is v, so the panel is the same bits).
func packA(transA bool, alpha float64, a *Matrix, ic, pc, mcEff, kcEff, mr int, strips bool, dst []float64) {
	lda := a.Cols
	if transA {
		// A is k x m row-major; op(A)[i,p] = A[p,i]: each p contributes
		// mr consecutive source elements.
		for s := 0; s*mr < mcEff; s++ {
			i0 := ic + s*mr
			rows := min2(mr, ic+mcEff-i0)
			out := dst[s*kcEff*mr:]
			if rows == mr {
				if strips && alpha == 1 {
					packStrip(mr, kcEff, a.Data[pc*lda+i0:], lda, out)
					continue
				}
				for p := 0; p < kcEff; p++ {
					src := a.Data[(pc+p)*lda+i0 : (pc+p)*lda+i0+mr]
					o := out[p*mr : p*mr+mr]
					for r, v := range src {
						o[r] = alpha * v
					}
				}
				continue
			}
			for p := 0; p < kcEff; p++ {
				src := a.Data[(pc+p)*lda+i0:]
				o := out[p*mr : (p+1)*mr]
				for r := 0; r < mr; r++ {
					if r < rows {
						o[r] = alpha * src[r]
					} else {
						o[r] = 0
					}
				}
			}
		}
		return
	}
	// A is m x k row-major; a strip interleaves mr row slices: row r of
	// the strip scatters into dst with stride mr.
	for s := 0; s*mr < mcEff; s++ {
		i0 := ic + s*mr
		rows := min2(mr, ic+mcEff-i0)
		out := dst[s*kcEff*mr : s*kcEff*mr+kcEff*mr]
		for r := 0; r < mr; r++ {
			if r >= rows {
				for p := 0; p < kcEff; p++ {
					out[p*mr+r] = 0
				}
				continue
			}
			src := a.Data[(i0+r)*lda+pc : (i0+r)*lda+pc+kcEff]
			for p, v := range src {
				out[p*mr+r] = alpha * v
			}
		}
	}
}

// packB copies the (pc:pc+kcEff, jc:jc+ncEff) panel of op(B) into dst as
// nr-column strips, dst[s*kcEff*nr + p*nr + j] = op(B)[pc+p, jc+s*nr+j],
// zero-padding short final strips. strips sends full strips of an
// untransposed B through packStrip.
func packB(transB bool, b *Matrix, pc, jc, kcEff, ncEff, nr int, strips bool, dst []float64) {
	ldb := b.Cols
	if !transB {
		// B is k x n row-major: each p contributes nr consecutive
		// source elements.
		for s := 0; s*nr < ncEff; s++ {
			j0 := jc + s*nr
			cols := min2(nr, jc+ncEff-j0)
			out := dst[s*kcEff*nr:]
			if strips && cols == nr {
				packStrip(nr, kcEff, b.Data[pc*ldb+j0:], ldb, out)
				continue
			}
			for p := 0; p < kcEff; p++ {
				src := b.Data[(pc+p)*ldb+j0 : (pc+p)*ldb+j0+cols]
				o := out[p*nr : (p+1)*nr]
				copy(o, src)
				for j := cols; j < nr; j++ {
					o[j] = 0
				}
			}
		}
		return
	}
	// B is n x k row-major; op(B)[p,j] = B[j,p]: a strip interleaves nr
	// row slices of B.
	for s := 0; s*nr < ncEff; s++ {
		j0 := jc + s*nr
		cols := min2(nr, jc+ncEff-j0)
		out := dst[s*kcEff*nr:]
		for j := 0; j < nr; j++ {
			if j >= cols {
				for p := 0; p < kcEff; p++ {
					out[p*nr+j] = 0
				}
				continue
			}
			src := b.Data[(j0+j)*ldb+pc : (j0+j)*ldb+pc+kcEff]
			for p, v := range src {
				out[p*nr+j] = v
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
