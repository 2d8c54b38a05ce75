package tce

// This file adds a second TCE-generated kernel, modeled on the T1
// subroutines of CCSD (§III-A: the method is generated into "more than 60
// sub-kernels ... divided into T1 and T2 subroutines"). The paper ports
// icsd_t2_7 and names porting the rest as ongoing work (§VII); this
// kernel demonstrates that the port generalizes: the same Emitter
// interface, inspection phase, variants, and executors run it unchanged.
//
// The contraction is the T1-shaped term
//
//	i0(p2, h1) += sum_{h7, p5} t2(p2, p5, h1, h7) * f(h7, p5)
//
// whose output blocks are 2-index tiles (represented as 4-index tiles
// with trailing extents of 1), each computed by a chain of GEMMs with a
// single SORT branch (the output layout already matches storage).

import (
	"fmt"

	"parsec/internal/molecule"
	"parsec/internal/tensor"
)

// TensorF names the one-particle intermediate consumed by the T1 kernel.
const TensorF = "f1"

// kernelKind selects a kernel's loop nest.
type kernelKind int

const (
	kindT2_7 kernelKind = iota
	kindT1_2
)

// KernelByName returns the named kernel: "t2_7" (the paper's ported
// subroutine) or "t1_2" (the T1-shaped generalization).
func KernelByName(name string, sys *molecule.System) (*Kernel, error) {
	switch name {
	case "", "t2_7", "icsd_t2_7":
		return T2_7(sys), nil
	case "t1_2", "icsd_t1_2":
		return T1_2(sys), nil
	}
	return nil, fmt.Errorf("tce: unknown kernel %q (want t2_7 or t1_2)", name)
}

// T1_2 returns the T1-shaped kernel for a system.
func T1_2(sys *molecule.System) *Kernel {
	return &Kernel{Name: "icsd_t1_2", Sys: sys, kind: kindT1_2}
}

// t1OutAllowed reports whether the output block i0(p2, h1) is
// symmetry-allowed.
func (k *Kernel) t1OutAllowed(p2, h1 molecule.Tile) bool {
	return p2.Spin == h1.Spin && p2.Irrep == h1.Irrep
}

// t1AAllowed reports whether the amplitude block t2(h7, p5, p2, h1) is
// stored (same rule as the T2 kernel's A operand).
func (k *Kernel) t1AAllowed(h7, p5, p2, h1 molecule.Tile) bool {
	return spinOK(p2, p5, h1, h7) && irrepOK(p2, p5, h1, h7)
}

// t1BAllowed reports whether the intermediate block f(h7, p5) is stored.
func (k *Kernel) t1BAllowed(h7, p5 molecule.Tile) bool {
	return h7.Spin == p5.Spin && h7.Irrep == p5.Irrep
}

// t1Sort is every T1 chain's one SORT branch, shared and
// capacity-clipped like SortBranches' sets.
var t1Sort = []SortOp{{Branch: 0, Perm: [4]int{0, 1, 2, 3}, Sign: +1}}[:1:1]

// walkT1 drives the T1 loop nest through the emitter.
func (k *Kernel) walkT1(em Emitter) {
	sys := k.Sys
	chain := 0
	for _, p2 := range sys.Virt {
		for _, h1 := range sys.Occ {
			if !k.t1OutAllowed(p2, h1) {
				continue
			}
			started := false
			pos := 0
			cdims := [4]int{p2.Size, h1.Size, 1, 1}
			out := BlockRef{
				Tensor: TensorC,
				Key:    tensor.BlockKey{p2.Index, h1.Index, 0, 0},
				Dims:   cdims,
			}
			for _, h7 := range sys.Occ {
				for _, p5 := range sys.Virt {
					if !k.t1AAllowed(h7, p5, p2, h1) || !k.t1BAllowed(h7, p5) {
						continue
					}
					if !started {
						em.StartChain(chain, out, cdims)
						started = true
					}
					em.Gemm(chain, pos, GemmOp{
						Iter: IterVec{P3: p2.Index, P4: -1, H1: h1.Index, H2: -1, H7: h7.Index, P5: p5.Index},
						A: BlockRef{
							Tensor: TensorA,
							Key:    tensor.BlockKey{h7.Index, p5.Index, p2.Index, h1.Index},
							Dims:   [4]int{h7.Size, p5.Size, p2.Size, h1.Size},
						},
						B: BlockRef{
							Tensor: TensorF,
							Key:    tensor.BlockKey{h7.Index, p5.Index, 0, 0},
							Dims:   [4]int{h7.Size, p5.Size, 1, 1},
						},
						M: p2.Size * h1.Size,
						N: 1,
						K: h7.Size * p5.Size,
					})
					pos++
				}
			}
			if started {
				// The GEMM output layout (p2, h1) already matches the
				// Global Array layout: a single identity SORT branch.
				em.EndChain(chain, t1Sort)
				chain++
			}
		}
	}
}
