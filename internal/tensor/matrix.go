// Package tensor provides the dense kernels the CCSD port computes with:
// row-major matrices with a blocked DGEMM, 4-index tiles with the TCE-style
// SORT_4 permutation kernel, and block-sparse 4-index tensors. These are
// the numerical workhorses behind the GEMM / SORT / WRITE tasks of the
// paper's icsd_t2_7 subroutine.
package tensor

import (
	"fmt"
	"math"

	"parsec/internal/tensor/pool"
)

// Matrix is a dense row-major matrix of float64, or — when it views a
// born-packed tile (Tile4.AsMatrix) — the same Rows x Cols matrix held
// as a GEMM panel, which only Gemm and GemmP read.
type Matrix struct {
	Rows, Cols int
	Data       []float64
	Layout     Layout
}

// NewMatrix returns a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: NewMatrix(%d, %d)", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy, in its layout.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{Rows: m.Rows, Cols: m.Cols, Data: make([]float64, len(m.Data)), Layout: m.Layout}
	copy(c.Data, m.Data)
	return c
}

// Bytes returns the storage size of the matrix in bytes.
func (m *Matrix) Bytes() int64 { return int64(len(m.Data)) * 8 }

// MaxAbsDiff returns the largest absolute elementwise difference between
// two same-shaped matrices.
func (m *Matrix) MaxAbsDiff(o *Matrix) float64 {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	var d float64
	for i, v := range m.Data {
		if abs := math.Abs(v - o.Data[i]); abs > d {
			d = abs
		}
	}
	return d
}

// GemmFlops returns the floating-point operation count of one
// m x n x k GEMM (multiply-adds counted as two ops).
func GemmFlops(m, n, k int) int64 { return 2 * int64(m) * int64(n) * int64(k) }

// Gemm is BLAS DGEMM as the TCE-generated code calls it (Fig 1):
// dgemm('T','N', m, n, k, 1.0, A, k, B, k, 1.0, C, m), that is C +=
// A^T*B with A k x m, B k x n and C m x n, all row-major. It is the one
// call shape in the tree, so it is the only one Gemm computes: any other
// transA, transB, alpha or beta panics. The argument list stays BLAS's
// so a call reads like the Fortran it ports; the work is GemmP's.
func Gemm(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	if !transA || transB || alpha != 1 || beta != 1 {
		panic(fmt.Sprintf("tensor: Gemm computes only dgemm('T','N', 1, A, B, 1, C), not transA=%v transB=%v alpha=%g beta=%g",
			transA, transB, alpha, beta))
	}
	GemmP(nil, nil, a, b, c)
}

// mustRowMajorC panics unless the GEMM output c is row-major: only
// inputs are ever born packed.
func mustRowMajorC(c *Matrix) {
	if c.Layout.Kind != RowMajor {
		panic(fmt.Sprintf("tensor: GEMM output in %v layout", c.Layout))
	}
}

// gemmDirect is the unpacked path of every product below the blocking
// cutoff. A panel operand is unpacked into scratch from loc first.
func gemmDirect(a, b, c *Matrix, loc *pool.Local) {
	if a.Layout.Kind != RowMajor || b.Layout.Kind != RowMajor {
		ra, abuf := rowMajorOperand(a, loc)
		rb, bbuf := rowMajorOperand(b, loc)
		gemmTN(&ra, &rb, c)
		loc.Put(abuf)
		loc.Put(bbuf)
		return
	}
	gemmTN(a, b, c)
}

// gemmTN computes C += A^T * B where A is k x m row-major. This is the
// hot kernel of every product below the blocking cutoff — the TCE calls
// dgemm('T','N') for every block contraction (Fig 1). On the two
// assembly tiers each full 4-row x 8-column block of C goes to gemmTN4x8
// (gemm_kernel_amd64.s), which keeps the block in registers across k and
// does, per element, what gemmTNGo does in the order it does it: the
// same skip of an l whose four A values are all zero, then an unfused
// multiply and add. The result is the same bits as gemmTNGo. Columns
// past the last full strip and the m%4 leftover rows run the Go loop
// itself.
func gemmTN(a, b, c *Matrix) {
	n, k, m := c.Cols, a.Rows, a.Cols
	n8 := n &^ (gemmNRAsm - 1)
	if activeTier == TierPortable || n8 == 0 || m < gemmMR || k == 0 {
		gemmTNGo(a, b, c)
		return
	}
	m4 := m &^ (gemmMR - 1)
	// The three index expressions are the bounds checks the assembly
	// does not have: the last A, B and C element it touches.
	_ = a.Data[(k-1)*m+m4-1]
	_ = b.Data[(k-1)*n+n8-1]
	_ = c.Data[(m4-1)*n+n8-1]
	for i := 0; i < m4; i += gemmMR {
		gemmTN4x8(int64(k), int64(n8/gemmNRAsm), &a.Data[i], int64(m)*8,
			&b.Data[0], int64(n)*8, &c.Data[i*n], int64(n)*8)
		if n8 < n {
			gemmTNRows4(a, b, c, i, n8)
		}
	}
	for i := m4; i < m; i++ {
		gemmTNRow(a, b, c, i)
	}
}

// gemmTNGo is the Go dgemm('T','N') loop: the portable rung, and the
// reference the assembly path is tested against bit for bit. It is
// register-blocked: four C rows accumulate simultaneously while each B
// row streams through once, quartering the memory traffic of the naive
// loop.
func gemmTNGo(a, b, c *Matrix) {
	m := a.Cols
	i := 0
	for ; i+4 <= m; i += 4 {
		gemmTNRows4(a, b, c, i, 0)
	}
	for ; i < m; i++ {
		gemmTNRow(a, b, c, i)
	}
}

// gemmTNRows4 accumulates C rows i..i+3, columns [j0, n), skipping an l
// whose four A values are all zero. The float64 conversion keeps the
// multiply rounded on its own: the language lets a compiler fuse x*y + z
// (Go does on arm64), and the assembly path never does.
func gemmTNRows4(a, b, c *Matrix, i, j0 int) {
	n, k, m := c.Cols, a.Rows, a.Cols
	w := n - j0
	// Every row slice is w long, so the inner loop needs no bounds check.
	c0 := c.Data[(i+0)*n+j0:][:w]
	c1 := c.Data[(i+1)*n+j0:][:w]
	c2 := c.Data[(i+2)*n+j0:][:w]
	c3 := c.Data[(i+3)*n+j0:][:w]
	for l := 0; l < k; l++ {
		av := a.Data[l*m+i:][:4]
		av0, av1, av2, av3 := av[0], av[1], av[2], av[3]
		if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
			continue
		}
		brow := b.Data[l*n+j0:][:w]
		for j, bv := range brow {
			c0[j] += float64(av0 * bv)
			c1[j] += float64(av1 * bv)
			c2[j] += float64(av2 * bv)
			c3[j] += float64(av3 * bv)
		}
	}
}

// gemmTNRow accumulates the single C row i, skipping an l whose A value
// is zero.
func gemmTNRow(a, b, c *Matrix, i int) {
	n, k, m := c.Cols, a.Rows, a.Cols
	crow := c.Data[i*n : (i+1)*n]
	for l := 0; l < k; l++ {
		av := a.Data[l*m+i]
		if av == 0 {
			continue
		}
		brow := b.Data[l*n : (l+1)*n]
		for j, bv := range brow {
			crow[j] += float64(av * bv)
		}
	}
}
