package tce

import (
	"fmt"
	"sort"
	"sync/atomic"

	"parsec/internal/tensor"
)

// blockSeed derives a deterministic per-block seed from the system seed,
// the tensor name, and the block key, so every executor fills identical
// synthetic data.
func blockSeed(base uint64, name string, key tensor.BlockKey) uint64 {
	h := base ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(name) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	for _, k := range key {
		h = (h ^ uint64(uint32(k))) * 0x100000001b3
	}
	return h
}

// FillBlock fills a tile with the canonical synthetic data for the given
// block reference: deterministic pseudo-random values standing in for the
// CCSD amplitudes and two-electron integrals.
func (w *Workload) FillBlock(ref BlockRef, t *tensor.Tile4) {
	t.FillRandom(blockSeed(w.Kernel.Sys.Seed, ref.Tensor, ref.Key), 0.5)
}

// InputTensors returns the distinct input tensor names the workload's
// GEMMs reference, in (A, B) order: ("t2", "v2") for the T2 kernel,
// ("t2", "f1") for the T1 kernel.
func (w *Workload) InputTensors() (aName, bName string) {
	if len(w.Chains) == 0 || len(w.Chains[0].Gemms) == 0 {
		return TensorA, TensorB
	}
	g := w.Chains[0].Gemms[0]
	return g.Op.A.Tensor, g.Op.B.Tensor
}

// Materialize allocates and fills the input tensors referenced by the
// workload. Only symmetry-allowed blocks that the kernel actually touches
// are stored, mirroring the block-sparse storage of the TCE. Intended for
// small systems executed with real arithmetic; the simulator never calls
// this.
func (w *Workload) Materialize() (a, b *tensor.BlockTensor4) {
	aName, bName := w.InputTensors()
	a = tensor.NewBlockTensor4()
	b = tensor.NewBlockTensor4()
	for _, ref := range w.UniqueBlocks(aName) {
		w.FillBlock(ref, a.GetOrCreate(ref.Key, ref.Dims))
	}
	for _, ref := range w.UniqueBlocks(bName) {
		w.FillBlock(ref, b.GetOrCreate(ref.Key, ref.Dims))
	}
	return a, b
}

// fillWeights overwrites t with the deterministic weights of the output
// block with the given key.
func (w *Workload) fillWeights(key tensor.BlockKey, t *tensor.Tile4) {
	t.FillRandom(blockSeed(w.Kernel.Sys.Seed, "weights", key), 0.25)
}

// Weights returns the deterministic weight tensor over the workload's
// output blocks used by the correlation-energy functional Energy. Energy
// itself never builds it: this is for callers that want the weights as
// data.
func (w *Workload) Weights() *tensor.BlockTensor4 {
	wt := tensor.NewBlockTensor4()
	for _, ref := range w.UniqueBlocks(TensorC) {
		w.fillWeights(ref.Key, wt.GetOrCreate(ref.Key, ref.Dims))
	}
	return wt
}

// Energy reduces an output tensor to the scalar correlation-energy
// functional: the inner product with the deterministic weight tensor,
// accumulated in block-key order. All algorithmic variants of the kernel
// must reproduce this value to ~14 digits (§IV-A).
//
// The weights are read once, so they are streamed: each output block's
// weights are generated into one pooled scratch tile and folded
// immediately. Blocks in key order, elements in storage order, one
// running sum — the fold order of c.Dot(w.Weights()), so the value is
// bitwise that one's, without the weight tensor ever existing. A block c
// lacks contributes nothing; EnergyFold is the same fold fed block by
// block while the output is still being written.
func (w *Workload) Energy(c *tensor.BlockTensor4) float64 {
	out := w.UniqueBlocks(TensorC)
	var sum float64
	for _, pos := range w.outByKey {
		if t, ok := c.Tile(out[pos].Key); ok {
			sum = w.foldBlock(sum, &out[pos], t)
		}
	}
	return sum
}

// foldBlock adds output block ref's contribution to the energy, held in t,
// to sum: the one step both Energy and EnergyFold take per block.
func (w *Workload) foldBlock(sum float64, ref *BlockRef, t *tensor.Tile4) float64 {
	if t.Dim != ref.Dims {
		panic(fmt.Sprintf("tce: Energy dims mismatch at %v: %v vs %v", ref.Key, t.Dim, ref.Dims))
	}
	wt := tensor.GetTile4(ref.Dims[0], ref.Dims[1], ref.Dims[2], ref.Dims[3])
	w.fillWeights(ref.Key, wt)
	for i, v := range t.Data {
		sum += v * wt.Data[i]
	}
	tensor.PutTile4(wt)
	return sum
}

// EnergyFold is Energy computed while the output is still being written.
// Each output block arrives once, through Put, from any goroutine and in
// any order; it is folded as soon as every block before it in key order
// has been, by whichever Put finds the next block ready, and then
// dropped. The order of the sum is Energy's, so the value is bitwise
// Energy's over the same blocks. Folding into a running sum that starts
// at +0 also makes a block that holds −0 where Energy's tensor held +0
// (the zero sign is all that separates an adopted contribution from
// 0 + 1·x) fold to the same bits: round to nearest never makes such a
// sum −0, and sum + (±0) is sum.
type EnergyFold struct {
	w     *Workload
	tiles []atomic.Pointer[tensor.Tile4] // by rank in key order; cleared once folded
	// busy is a try-lock held by the one Put folding; sum is its.
	busy atomic.Bool
	sum  float64
	// next is the rank of the first block not folded yet, stored by the
	// folding Put before it looks at that block, so a Put that read an
	// older value and left its block behind is always seen later.
	next atomic.Int32
}

// NewEnergyFold returns an empty fold over the workload's output blocks.
func (w *Workload) NewEnergyFold() *EnergyFold {
	w.derive()
	return &EnergyFold{w: w, tiles: make([]atomic.Pointer[tensor.Tile4], len(w.outByKey))}
}

// Put hands the fold output block key's final tile, which must not change
// afterwards. It folds every block that is now next in key order, unless
// another Put is folding: that one looks again after it lets go, so a
// block left ready is never missed. Putting a block twice, or one the
// workload does not write, panics.
func (f *EnergyFold) Put(key tensor.BlockKey, t *tensor.Tile4) {
	out := f.w.uniq[TensorC]
	r := sort.Search(len(f.w.outByKey), func(r int) bool { return !out[f.w.outByKey[r]].Key.Less(key) })
	if r == len(f.w.outByKey) || out[f.w.outByKey[r]].Key != key {
		panic(fmt.Sprintf("tce: EnergyFold.Put of %v, not an output block", key))
	}
	if int(f.next.Load()) > r || !f.tiles[r].CompareAndSwap(nil, t) {
		panic(fmt.Sprintf("tce: EnergyFold.Put of %v twice", key))
	}
	for {
		n := int(f.next.Load())
		if n == len(f.tiles) || f.tiles[n].Load() == nil || !f.busy.CompareAndSwap(false, true) {
			return
		}
		for n = int(f.next.Load()); n < len(f.tiles); {
			t := f.tiles[n].Load()
			if t == nil {
				break
			}
			f.sum = f.w.foldBlock(f.sum, &out[f.w.outByKey[n]], t)
			f.tiles[n].Store(nil)
			n++
			f.next.Store(int32(n))
		}
		f.busy.Store(false)
	}
}

// Energy returns the folded energy once every Put has returned, or an
// error naming the first block in key order that never arrived.
func (f *EnergyFold) Energy() (float64, error) {
	if n := int(f.next.Load()); n < len(f.tiles) {
		ref := f.w.uniq[TensorC][f.w.outByKey[n]]
		return 0, fmt.Errorf("tce: output block %v never completed, so the energy is unknown", ref)
	}
	return f.sum, nil
}

// RunReference executes the workload exactly as the original serial
// semantics prescribe: for each chain in loop order, zero the C buffer
// (DFILL), apply every GEMM in sequence, then apply each active SORT_4
// followed by its accumulate into the output tensor (ADD_HASH_BLOCK).
// It returns the output tensor and is the ground truth for every
// parallel variant.
func (w *Workload) RunReference(a, b *tensor.BlockTensor4) *tensor.BlockTensor4 {
	out := tensor.NewBlockTensor4()
	w.RunReferenceInto(out, a, b)
	return out
}

// RunReferenceInto is RunReference accumulating into an existing output
// tensor (ADD_HASH_BLOCK semantics: contributions fold into whatever the
// blocks already hold). The per-chain C buffer and SORT scratch come from
// the tensor scratch pool, so a warmed-up call performs no steady-state
// heap allocation beyond output blocks absent from out.
func (w *Workload) RunReferenceInto(out *tensor.BlockTensor4, a, b *tensor.BlockTensor4) {
	for _, c := range w.Chains {
		cbuf := tensor.GetTile4Zeroed(c.CDims[0], c.CDims[1], c.CDims[2], c.CDims[3])
		cm := cbuf.AsMatrix()
		for _, g := range c.Gemms {
			at := a.MustTile(g.Op.A.Key)
			bt := b.MustTile(g.Op.B.Key)
			// dgemm('T', 'N', ...): op(A) = A^T, per Fig 1.
			tensor.Gemm(true, false, 1, at.AsMatrix(), bt.AsMatrix(), 1, cm)
		}
		dst := out.GetOrCreate(c.Out.Key, c.Out.Dims)
		tmp := tensor.GetTile4(c.Out.Dims[0], c.Out.Dims[1], c.Out.Dims[2], c.Out.Dims[3])
		for _, s := range c.Sorts {
			tensor.Sort4(tmp, cbuf, s.Perm, s.Sign)
			dst.AddScaled(tmp, 1)
		}
		tensor.PutTile4(tmp)
		tensor.PutTile4(cbuf)
	}
}
