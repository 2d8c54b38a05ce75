package tensor

import (
	"fmt"

	"parsec/internal/team"

	"parsec/internal/tensor/pool"
)

const (
	// gemmParCutoff is the m*n*k product below which splitting a product
	// across workers costs more (packing duplication, wakeups) than it
	// saves; such products run serially on the caller.
	gemmParCutoff = 96 * 96 * 96
	// gemmParMinCols is the minimum C column span per part: narrower
	// windows re-pack A too often relative to the flops they cover.
	gemmParMinCols = 64
)

// GemmP computes C += A^T*B, Gemm's dgemm('T','N'), with A k x m, B k x n
// and C m x n, splitting the C columns across the team handle par. Each
// part runs the full blocked kernel over a disjoint column window, so
// every C element is accumulated by exactly one part in the same k order
// and the result is bitwise identical to a serial call for any part
// count (the split points sit on the micro-kernel's column grid, which
// moves no C element to another k order). loc is the caller's scratch
// shard, used for the serial path (parts draw from the scratch handle
// their Span slot provides). It panics on shape mismatch.
//
// par may be nil for a plain serial call; loc may be nil to draw from
// the shared pool.
func GemmP(par team.Parallelism, loc *pool.Local, a, b, c *Matrix) {
	m, n, k := a.Cols, b.Cols, a.Rows
	if b.Rows != k || c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("tensor: GEMM shape mismatch A^T=%dx%d B=%dx%d C=%dx%d",
			m, k, b.Rows, n, c.Rows, c.Cols))
	}
	mustRowMajorC(c)
	if m == 0 || n == 0 || k == 0 {
		return
	}
	if !BlockedGemm(m, n, k) {
		gemmDirect(a, b, c, loc)
		return
	}
	parts := 1
	if par != nil && m*n*k >= gemmParCutoff {
		parts = min2(par.Workers(), n/gemmParMinCols)
	}
	if parts <= 1 {
		gemmBlockedCols(a, b, c, 0, n, loc)
		return
	}
	// The closure goes to other workers, so what it captures lives on the
	// heap. Capturing copies of the three headers made here keeps the
	// callers' own — typically AsMatrix() temporaries — on their stacks
	// whenever a branch above ran instead, which is nearly always.
	pa, pb, pc := *a, *b, *c
	_, nr := gemmTierShape()
	par.Span(parts, func(part int, scratch *pool.Local) {
		gemmBlockedCols(&pa, &pb, &pc, splitCol(part, parts, n, nr), splitCol(part+1, parts, n, nr), scratch)
	})
}

// splitCol is the first C column of part of parts over n columns: the
// even split point rounded to the nearest multiple of the strip width
// nr, so every window starts on the strip grid of a born-packed B panel
// and the parts stay as even as that grid allows. Rounding moves a split
// by at most nr/2, and gemmParMinCols (> nr) columns per part keep every
// window non-empty.
func splitCol(part, parts, n, nr int) int {
	if part == parts {
		return n
	}
	return (part*n/parts + nr/2) / nr * nr
}
