package tce

import (
	"sort"

	"parsec/internal/tensor"
)

// InputTable is the block table of one input tensor as the dataflow
// sees it: the distinct blocks the workload's GEMMs read, how many GEMMs
// read each, and which block every GEMM reads — the inspection phase's
// "pointers to the data" (§III-B) resolved to table positions once per
// workload, so the per-task read path indexes instead of hashing a name
// and a key. It also fixes each block's storage: born packed into the
// GEMM panel its readers consume (DESIGN.md §8, "Tile layout"), or
// row-major. It is immutable, and is the ga.LazySource behind the lazily
// filled input arrays of a real execution.
type InputTable struct {
	// Name is the tensor's name; Blocks is UniqueBlocks(Name), and a
	// block's number is its position there.
	Name   string
	Blocks []BlockRef

	w    *Workload
	uses []int32
	// layout is each block's storage: the side's GEMM panel when every
	// GEMM reading the block can consume one in place
	// (tensor.PanelOperands), row-major otherwise.
	layout []tensor.Layout
	// byKey lists the block numbers in block-key order, for Lookup: the
	// keyed surface is the cold path, so it gets a binary search over
	// 4 B per block rather than a map a cached plan would hold for good.
	byKey []int32
	// gemm holds the block number every GEMM reads, chain after chain,
	// numbered as the workload's GEMM array (ChainMeta.first).
	gemm []int32
}

// newInputTable numbers the blocks of one input tensor and resolves
// every GEMM's operand (chosen by ref) against that numbering. side is
// the panel kind the tensor's blocks are born packed into — PanelA for
// op(A) = A^T, PanelB for B — where every GEMM reading a block takes
// the blocked path on an assembly tier with k in one packed block.
func newInputTable(w *Workload, name string, side tensor.LayoutKind, ref func(*GemmOp) BlockRef) *InputTable {
	blocks := w.uniq[name]
	t := &InputTable{
		Name:   name,
		Blocks: blocks,
		w:      w,
		uses:   make([]int32, len(blocks)),
		layout: make([]tensor.Layout, len(blocks)),
		byKey:  keyOrder(blocks),
	}
	n := 0
	for _, c := range w.Chains {
		n += len(c.Gemms)
	}
	t.gemm = make([]int32, 0, n)
	index := make(map[tensor.BlockKey]int32, len(blocks))
	for i, b := range blocks {
		index[b.Key] = int32(i)
	}
	panel := tensor.PanelLayout(side)
	for _, c := range w.Chains {
		for gi := range c.Gemms {
			op := &c.Gemms[gi].Op
			i := index[ref(op).Key]
			t.gemm = append(t.gemm, i)
			t.uses[i]++
			// A panel from the first reader on, row-major for good once
			// any reader cannot consume one.
			if !tensor.PanelOperands(op.M, op.N, op.K) {
				t.layout[i] = tensor.Layout{}
			} else if t.uses[i] == 1 {
				t.layout[i] = panel
			}
		}
	}
	return t
}

// keyOrder returns the positions of blocks sorted by block key.
func keyOrder(blocks []BlockRef) []int32 {
	order := make([]int32, len(blocks))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return blocks[order[i]].Key.Less(blocks[order[j]].Key) })
	return order
}

// Inputs returns the block tables of the workload's two input tensors,
// in (A, B) order. Like UniqueBlocks they are derived once per workload.
func (w *Workload) Inputs() (a, b *InputTable) {
	w.derive()
	return w.inputs[0], w.inputs[1]
}

// BlockOf returns the number of the block the GEMM at the given chain
// position reads from this tensor.
func (t *InputTable) BlockOf(chain, pos int) int {
	return int(t.gemm[int(t.w.Chains[chain].first)+pos])
}

// NumBlocks returns the number of distinct blocks.
func (t *InputTable) NumBlocks() int { return len(t.Blocks) }

// Lookup resolves a block key to its number.
func (t *InputTable) Lookup(key tensor.BlockKey) (int, bool) {
	n := sort.Search(len(t.byKey), func(n int) bool { return !t.Blocks[t.byKey[n]].Key.Less(key) })
	if n == len(t.byKey) || t.Blocks[t.byKey[n]].Key != key {
		return 0, false
	}
	return int(t.byKey[n]), true
}

// Dims returns the extents of block i.
func (t *InputTable) Dims(i int) [4]int { return t.Blocks[i].Dims }

// Layout returns the storage layout of block i: a GEMM panel when the
// block is born packed, else row-major.
func (t *InputTable) Layout(i int) tensor.Layout { return t.layout[i] }

// Uses returns the number of GEMMs reading block i.
func (t *InputTable) Uses(i int) int { return int(t.uses[i]) }

// Fill overwrites tile with the canonical synthetic data of block i
// (Workload.FillBlock), generated straight into the tile's layout.
func (t *InputTable) Fill(i int, tile *tensor.Tile4) { t.w.FillBlock(t.Blocks[i], tile) }
