// Package tce reproduces the structure of NWChem's Tensor Contraction
// Engine output for the icsd_t2_7 subroutine of CCSD: a deep loop nest
// over tile indices whose IF branches (spin and spatial-symmetry
// conservation, canonical index ordering) decide which block GEMMs
// execute, organized into chains that share an output block (§III-A).
//
// The package exposes the loop nest through an Emitter interface so the
// same control flow drives three consumers: the serial reference
// executor, the original-style CGP executor, and the inspection phase
// that the PaRSEC port runs to fill its metadata arrays (§III-B, Fig 3).
package tce

import (
	"bytes"
	"fmt"
	"strconv"

	"parsec/internal/molecule"
	"parsec/internal/tensor"
)

// Tensor names used by the kernel. A (amplitudes) and B (integrals) are
// inputs; C is the output accumulated into the Global Array.
const (
	TensorA = "t2"
	TensorB = "v2"
	TensorC = "i0"
)

// BlockRef identifies one tile of a named distributed tensor.
type BlockRef struct {
	Tensor string
	Key    tensor.BlockKey
	Dims   [4]int
}

// Elems returns the number of elements in the block. Elems, Bytes and
// GemmOp.Flops take pointers: the graph builders call them once per task
// instance while building a skeleton, and a value receiver copies the
// whole struct on every call, inlined or not.
func (b *BlockRef) Elems() int {
	return b.Dims[0] * b.Dims[1] * b.Dims[2] * b.Dims[3]
}

// Bytes returns the storage size of the block in bytes.
func (b *BlockRef) Bytes() int64 { return int64(b.Elems()) * 8 }

// String renders the block as tensor name plus key, "t2(1,0,2,3)".
func (b BlockRef) String() string { return string(b.appendPrinted(nil)) }

// appendPrinted appends the block's printed form (String) to dst.
func (b *BlockRef) appendPrinted(dst []byte) []byte {
	dst = append(dst, b.Tensor...)
	sep := byte('(')
	for _, k := range b.Key {
		dst = strconv.AppendInt(append(dst, sep), int64(k), 10)
		sep = ','
	}
	return append(dst, ')')
}

// comparePrinted orders blocks as their printed forms sort, without
// building the strings: both forms are written into stack buffers and
// compared byte by byte.
func comparePrinted(a, b BlockRef) int {
	var ab, bb [48]byte
	return bytes.Compare(a.appendPrinted(ab[:0]), b.appendPrinted(bb[:0]))
}

// IterVec is the iteration vector of one GEMM: the values of the loop
// induction variables (p3, p4, h1, h2, h7, p5) enclosing the call, as the
// inspection phase records them (§III-B).
type IterVec struct{ P3, P4, H1, H2, H7, P5 int }

// String lists the induction-variable values.
func (v IterVec) String() string {
	return fmt.Sprintf("[p3=%d p4=%d h1=%d h2=%d h7=%d p5=%d]", v.P3, v.P4, v.H1, v.H2, v.H7, v.P5)
}

// GemmOp describes one GEMM within a chain: C(m x n) += op(A) * B where
// op(A) is a transpose, matching the dgemm('T','N', ...) call in the
// paper's Fig 1.
type GemmOp struct {
	Iter    IterVec
	A, B    BlockRef
	M, N, K int
}

// Flops returns the floating-point operations of the GEMM.
func (g *GemmOp) Flops() int64 { return tensor.GemmFlops(g.M, g.N, g.K) }

// SortOp is one of the up-to-four SORT_4 applications at the end of a
// chain (§IV-A): an index permutation with a sign, targeting the chain's
// canonical output block.
type SortOp struct {
	Branch int // 0..3, the IF branch in the original source
	Perm   [4]int
	Sign   float64
}

// sortBranches are the four IF branches of icsd_t2_7. The GEMM output is
// laid out (p3, h1, p4, h2); each branch permutes it into the Global
// Array layout (p3, p4, h1, h2) of the canonical block. Branch k fires
// when its predicate over the tile indices holds; for strictly ordered
// tiles exactly one fires, for equal tiles two or all four fire, writing
// the same canonical block with different in-tile permutations and signs.
var sortBranches = [4]SortOp{
	{Branch: 0, Perm: [4]int{0, 2, 1, 3}, Sign: +1}, // (p3<=p4) and (h1<=h2)
	{Branch: 1, Perm: [4]int{0, 2, 3, 1}, Sign: -1}, // (p3<=p4) and (h2<=h1)
	{Branch: 2, Perm: [4]int{2, 0, 1, 3}, Sign: -1}, // (p4<=p3) and (h1<=h2)
	{Branch: 3, Perm: [4]int{2, 0, 3, 1}, Sign: +1}, // (p4<=p3) and (h2<=h1)
}

// sortSets are the four branch sets SortBranches returns — {0}, {0,1},
// {0,2}, {0,1,2,3} — each capacity-clipped, so an append by a caller
// copies instead of writing into the next set.
var sortSets = func() [4][]SortOp {
	all := sortBranches[:]
	b02 := []SortOp{sortBranches[0], sortBranches[2]}
	return [4][]SortOp{all[:1:1], all[:2:2], b02[:2:2], all[:4:4]}
}()

// SortBranches returns the active SORT operations for a canonical output
// tile pair: always branch 0, plus the branches enabled by tile-index
// equalities. The result is shared by every chain with the same branch
// set and must not be modified.
func SortBranches(p3, p4, h1, h2 int) []SortOp {
	switch {
	case p3 == p4 && h1 == h2:
		return sortSets[3]
	case p3 == p4:
		return sortSets[2]
	case h1 == h2:
		return sortSets[1]
	}
	return sortSets[0]
}

// Emitter receives the calls that the original Fortran body would make.
// StartChain corresponds to DFILL (zero-initializing the chain's C
// buffer), Gemm to the dgemm call, Sort to SORT_4, and EndChain to the
// final ADD_HASH_BLOCK. The inspection phase is exactly an Emitter that
// records instead of computing (Fig 3).
type Emitter interface {
	StartChain(chain int, out BlockRef, cdims [4]int)
	Gemm(chain, pos int, g GemmOp)
	EndChain(chain int, sorts []SortOp)
}

// Kernel is a TCE-generated contraction kernel description.
type Kernel struct {
	Name string
	Sys  *molecule.System
	kind kernelKind
}

// T2_7 returns the icsd_t2_7 kernel for a system.
func T2_7(sys *molecule.System) *Kernel {
	return &Kernel{Name: "icsd_t2_7", Sys: sys, kind: kindT2_7}
}

// spinOK and irrepOK encode the conservation rules that appear as IF
// branches in TCE-generated code: a block of a two-electron tensor is
// nonzero only if spin is conserved and the irrep product is the totally
// symmetric representation.
func spinOK(a, b, c, d molecule.Tile) bool { return a.Spin+b.Spin == c.Spin+d.Spin }

// irrepOK combines irrep labels by XOR, as in the abelian point groups
// (Z2^k character tables) NWChem uses. XOR is closed under composition:
// if the A and B blocks of a GEMM are both allowed, the output block is
// too, so no allowed contribution is ever dropped by the output filter.
func irrepOK(a, b, c, d molecule.Tile) bool {
	return a.Irrep^b.Irrep^c.Irrep^d.Irrep == 0
}

// AAllowed reports whether the amplitude block t2(h7, p5, p3, h1) is
// symmetry-allowed (stored).
func (k *Kernel) AAllowed(h7, p5, p3, h1 molecule.Tile) bool {
	return spinOK(p3, p5, h1, h7) && irrepOK(p3, p5, h1, h7)
}

// BAllowed reports whether the integral block v2(h7, p5, p4, h2) is
// symmetry-allowed (stored).
func (k *Kernel) BAllowed(h7, p5, p4, h2 molecule.Tile) bool {
	return spinOK(h7, p4, h2, p5) && irrepOK(h7, p4, h2, p5)
}

// OutAllowed reports whether the output block i0(p3, p4, h1, h2) is
// symmetry-allowed.
func (k *Kernel) OutAllowed(p3, p4, h1, h2 molecule.Tile) bool {
	return spinOK(p3, p4, h1, h2) && irrepOK(p3, p4, h1, h2)
}

// ARef returns the block reference for the amplitude tile t2(h7,p5,p3,h1),
// stored in GEMM-ready layout so op(A) = A^T is (p3*h1) x (h7*p5).
func (k *Kernel) ARef(h7, p5, p3, h1 molecule.Tile) BlockRef {
	return BlockRef{
		Tensor: TensorA,
		Key:    tensor.BlockKey{h7.Index, p5.Index, p3.Index, h1.Index},
		Dims:   [4]int{h7.Size, p5.Size, p3.Size, h1.Size},
	}
}

// BRef returns the block reference for the integral tile v2(h7,p5,p4,h2),
// stored so B is (h7*p5) x (p4*h2).
func (k *Kernel) BRef(h7, p5, p4, h2 molecule.Tile) BlockRef {
	return BlockRef{
		Tensor: TensorB,
		Key:    tensor.BlockKey{h7.Index, p5.Index, p4.Index, h2.Index},
		Dims:   [4]int{h7.Size, p5.Size, p4.Size, h2.Size},
	}
}

// CRef returns the canonical Global Array output block i0(p3,p4,h1,h2).
func (k *Kernel) CRef(p3, p4, h1, h2 molecule.Tile) BlockRef {
	return BlockRef{
		Tensor: TensorC,
		Key:    tensor.BlockKey{p3.Index, p4.Index, h1.Index, h2.Index},
		Dims:   [4]int{p3.Size, p4.Size, h1.Size, h2.Size},
	}
}

// Walk drives the kernel's loop nest, invoking the emitter exactly as the
// TCE-generated Fortran would invoke DFILL / GEMM / SORT_4 /
// ADD_HASH_BLOCK. Chains are numbered in loop order; a chain is emitted
// only if at least one GEMM inside it survives the IF branches. This is
// the single source of truth for the workload: the serial reference, the
// CGP baseline, and the PaRSEC inspection phase all call Walk.
func (k *Kernel) Walk(em Emitter) {
	if k.kind == kindT1_2 {
		k.walkT1(em)
		return
	}
	sys := k.Sys
	chain := 0
	for _, p3 := range sys.Virt {
		for _, p4 := range sys.Virt[p3.Index:] { // p4b >= p3b
			for _, h1 := range sys.Occ {
				for _, h2 := range sys.Occ[h1.Index:] { // h2b >= h1b
					if !k.OutAllowed(p3, p4, h1, h2) {
						continue
					}
					started := false
					pos := 0
					// GEMM output layout (p3, h1, p4, h2).
					cdims := [4]int{p3.Size, h1.Size, p4.Size, h2.Size}
					out := k.CRef(p3, p4, h1, h2)
					for _, h7 := range sys.Occ {
						for _, p5 := range sys.Virt {
							if !k.AAllowed(h7, p5, p3, h1) || !k.BAllowed(h7, p5, p4, h2) {
								continue
							}
							if !started {
								em.StartChain(chain, out, cdims)
								started = true
							}
							em.Gemm(chain, pos, GemmOp{
								Iter: IterVec{p3.Index, p4.Index, h1.Index, h2.Index, h7.Index, p5.Index},
								A:    k.ARef(h7, p5, p3, h1),
								B:    k.BRef(h7, p5, p4, h2),
								M:    p3.Size * h1.Size,
								N:    p4.Size * h2.Size,
								K:    h7.Size * p5.Size,
							})
							pos++
						}
					}
					if started {
						em.EndChain(chain, SortBranches(p3.Index, p4.Index, h1.Index, h2.Index))
						chain++
					}
				}
			}
		}
	}
}
