package tensor

import (
	"fmt"

	"parsec/internal/tensor/pool"
)

// Tile layouts (DESIGN.md §8, "Tile layout"). A tile is row-major unless
// it was born packed: an input block every one of whose GEMMs would
// pack it the same way is generated straight into that packing, so no
// GEMM copies it again. A panel holds the R x C row-major matrix the
// tile views (R = Dim0*Dim1, C = Dim2*Dim3) as w-wide column strips:
// strip s holds columns s*w.. and is laid out k-major, element (p, j)
// at s*R*w + p*w + j%w, the last strip padded with zeros to full width.
// That is exactly what packA makes of op(A) = A^T and packB of B in a
// dgemm('T','N') whose k is one packed block (k <= gemmKC), so the
// blocked GEMM hands such a panel to its micro-kernel as it stands.

// LayoutKind names who a tile's storage is laid out for.
type LayoutKind uint8

const (
	// RowMajor is the default: last index fastest.
	RowMajor LayoutKind = iota
	// PanelA is op(A) = A^T of dgemm('T','N') in mr-row strips (mr-wide
	// column strips of the row-major A).
	PanelA
	// PanelB is B of dgemm('T','N') in nr-column strips.
	PanelB
)

// Layout is how a Tile4, and the Matrix it views, stores its elements:
// the kind and, for a panel, the strip width it was packed for. The
// zero value is row-major.
type Layout struct {
	Kind  LayoutKind
	Strip uint8
}

// maxStrip bounds a panel's strip width, for layouts that come off the
// wire; every tier's is 4, 8 or 16.
const maxStrip = 64

// Valid reports whether l is a layout some tile can have: row-major
// with no strip width, or a panel kind with a width in (0, 64].
func (l Layout) Valid() bool {
	switch l.Kind {
	case RowMajor:
		return l.Strip == 0
	case PanelA, PanelB:
		return l.Strip > 0 && l.Strip <= maxStrip
	}
	return false
}

// Len returns the storage length, in elements, of a tile with the given
// extents in layout l: the element count, plus the strip padding of a
// panel.
func (l Layout) Len(dim [4]int) int {
	rows, cols := dim[0]*dim[1], dim[2]*dim[3]
	if l.Kind == RowMajor {
		return rows * cols
	}
	return rows * roundUp(cols, int(l.Strip))
}

// String names the layout.
func (l Layout) String() string {
	switch l.Kind {
	case RowMajor:
		return "row-major"
	case PanelA:
		return fmt.Sprintf("A-panel/%d", l.Strip)
	case PanelB:
		return fmt.Sprintf("B-panel/%d", l.Strip)
	}
	return fmt.Sprintf("layout(%d/%d)", l.Kind, l.Strip)
}

// BlockedGemm reports whether an m x n x k product takes the
// cache-blocked packed path rather than the direct loops.
func BlockedGemm(m, n, k int) bool { return int64(m)*int64(n)*int64(k) >= gemmBlockCutoff }

// PanelOperands reports whether the operands of an m x n x k
// dgemm('T','N') may be born packed: the product takes the blocked path
// on an assembly tier, and its k fits one packed block, so a panel of
// the active tier's width is consumed in place. An input block is a
// panel only if this holds for every GEMM that reads it.
func PanelOperands(m, n, k int) bool {
	return activeTier != TierPortable && BlockedGemm(m, n, k) && k <= gemmKC
}

// PanelLayout returns the layout of a kind's panel on the active tier:
// PanelA strips are the micro-kernel's mr rows, PanelB strips its nr
// columns.
func PanelLayout(kind LayoutKind) Layout {
	mr, nr := gemmTierShape()
	switch kind {
	case PanelA:
		return Layout{Kind: PanelA, Strip: uint8(mr)}
	case PanelB:
		return Layout{Kind: PanelB, Strip: uint8(nr)}
	}
	return Layout{}
}

// NewTile4Layout returns a zeroed tile with the given extents stored in
// layout l.
func NewTile4Layout(dim [4]int, l Layout) *Tile4 {
	checkTile(dim, l)
	return &Tile4{Dim: dim, Layout: l, Data: make([]float64, l.Len(dim))}
}

func checkTile(dim [4]int, l Layout) {
	if dim[0] < 0 || dim[1] < 0 || dim[2] < 0 || dim[3] < 0 || !l.Valid() {
		panic(fmt.Sprintf("tensor: tile %v in %v", dim, l))
	}
}

// mustRowMajor panics unless t is row-major: element-wise operations
// read a tile by its row-major index.
func (t *Tile4) mustRowMajor(op string) {
	if t.Layout.Kind != RowMajor {
		panic(fmt.Sprintf("tensor: %s on a %v tile", op, t.Layout))
	}
}

// RowMajorCopy returns a row-major copy of the tile: a Clone of a
// row-major tile, the unpacked elements of a panel. It is what a copying
// read hands out (ga's GetHashBlock), since a panel is a kernel's
// private layout.
func (t *Tile4) RowMajorCopy() *Tile4 {
	if t.Layout.Kind == RowMajor {
		return t.Clone()
	}
	c := NewTile4(t.Dim[0], t.Dim[1], t.Dim[2], t.Dim[3])
	unpackPanel(c.Data, t.Data, t.Dim[0]*t.Dim[1], t.Dim[2]*t.Dim[3], int(t.Layout.Strip))
	return c
}

// unpackPanel writes the rows x cols row-major matrix held in w-wide
// column strips in src to dst.
func unpackPanel(dst, src []float64, rows, cols, w int) {
	for s, j0 := 0, 0; j0 < cols; s, j0 = s+1, j0+w {
		n := min2(w, cols-j0)
		strip := src[s*rows*w : (s+1)*rows*w]
		for p := 0; p < rows; p++ {
			copy(dst[p*cols+j0:p*cols+j0+n], strip[p*w:p*w+n])
		}
	}
}

// fillPanel is FillRandom on a panel: element (p, j) of the row-major
// matrix is value p*cols+j of the stream, whose state is seed +
// (p*cols+j+1)*gamma, written where the panel keeps it. Each strip is
// written in the order the micro-kernel reads it: a full 8- or 16-wide
// strip on the AVX-512 tier by fillStrip8/fillStrip16 (eight or sixteen lanes
// whose states step by cols*gamma per row), every other strip by the Go
// loop, which also writes the padding zeros.
func (t *Tile4) fillPanel(seed uint64, scale float64) {
	rows, cols, w := t.Dim[0]*t.Dim[1], t.Dim[2]*t.Dim[3], int(t.Layout.Strip)
	if rows == 0 {
		return
	}
	asm := activeTier == TierAVX512 && (w == 8 || w == 16)
	rowStep := uint64(cols) * splitMixGamma
	for s, j0 := 0, 0; j0 < cols; s, j0 = s+1, j0+w {
		strip := t.Data[s*rows*w : (s+1)*rows*w]
		n := min2(w, cols-j0)
		if asm && n == w {
			var lanes [8]uint64
			for i := range lanes {
				lanes[i] = seed + uint64(j0+i+1)*splitMixGamma
			}
			fillStrip(w, rows, strip, &lanes, rowStep, scale)
			continue
		}
		for p := 0; p < rows; p++ {
			o := strip[p*w : p*w+w]
			state := seed + uint64(p*cols+j0)*splitMixGamma
			for j := range o {
				if j < n {
					state += splitMixGamma
					o[j] = splitMix(state, scale)
				} else {
					o[j] = 0
				}
			}
		}
	}
}

// fillStrip writes one full strip of kc rows of w (8 or 16) generated
// values through the assembly entry of that width. The index expression
// is the bounds check the assembly does not have.
func fillStrip(w, kc int, dst []float64, lanes *[8]uint64, rowStep uint64, scale float64) {
	_ = dst[kc*w-1]
	if w == 8 {
		fillStrip8(int64(kc), &dst[0], lanes, rowStep, scale)
	} else {
		fillStrip16(int64(kc), &dst[0], lanes, rowStep, scale)
	}
}

// panelOperand reports whether the blocked kernel can consume operand x
// in place as a packed panel of kind at strip width w over k rows: it
// is that panel, and k is one packed block.
func panelOperand(x *Matrix, kind LayoutKind, w, k int) bool {
	return x.Layout == Layout{Kind: kind, Strip: uint8(w)} && k <= gemmKC
}

// rowMajorOperand returns x itself when it is row-major; a panel it
// unpacks into scratch from loc, returned with the view for the caller
// to give back (loc.Put). This is how a panel the running call cannot
// consume in place — another tier's width, an alpha the packing must
// fold, a window off the strip grid, the direct path — stays a valid
// operand.
func rowMajorOperand(x *Matrix, loc *pool.Local) (Matrix, []float64) {
	if x.Layout.Kind == RowMajor {
		return *x, nil
	}
	buf := loc.Get(x.Rows * x.Cols)
	unpackPanel(buf, x.Data, x.Rows, x.Cols, int(x.Layout.Strip))
	return Matrix{Rows: x.Rows, Cols: x.Cols, Data: buf}, buf
}
