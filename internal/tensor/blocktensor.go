package tensor

import (
	"fmt"
	"sort"
	"sync"
)

// BlockKey identifies one tile of a block-sparse 4-index tensor by its
// four block (tile) indices.
type BlockKey [4]int

// String renders the key as "(i,j,k,l)".
func (k BlockKey) String() string {
	return fmt.Sprintf("(%d,%d,%d,%d)", k[0], k[1], k[2], k[3])
}

// Less orders keys lexicographically; used for deterministic iteration.
func (k BlockKey) Less(o BlockKey) bool {
	for i := 0; i < 4; i++ {
		if k[i] != o[i] {
			return k[i] < o[i]
		}
	}
	return false
}

// BlockTensor4 is a block-sparse 4-index tensor: a concurrent map from
// block keys to dense tiles. Only stored (symmetry-unique, nonzero)
// blocks occupy memory, mirroring the hash-block storage the TCE code
// keeps inside Global Arrays.
type BlockTensor4 struct {
	mu    sync.RWMutex
	tiles map[BlockKey]*Tile4
}

// NewBlockTensor4 returns an empty block tensor.
func NewBlockTensor4() *BlockTensor4 {
	return &BlockTensor4{tiles: make(map[BlockKey]*Tile4)}
}

// Tile returns the tile for key, or (nil, false) if absent.
func (bt *BlockTensor4) Tile(key BlockKey) (*Tile4, bool) {
	bt.mu.RLock()
	t, ok := bt.tiles[key]
	bt.mu.RUnlock()
	return t, ok
}

// MustTile returns the tile for key, panicking if absent.
func (bt *BlockTensor4) MustTile(key BlockKey) *Tile4 {
	t, ok := bt.Tile(key)
	if !ok {
		panic(fmt.Sprintf("tensor: missing block %v", key))
	}
	return t
}

// GetOrCreate returns the tile for key, allocating a zeroed tile with the
// given extents if absent. It panics if an existing tile has different
// extents.
func (bt *BlockTensor4) GetOrCreate(key BlockKey, dims [4]int) *Tile4 {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	if t, ok := bt.tiles[key]; ok {
		if t.Dim != dims {
			panic(fmt.Sprintf("tensor: block %v exists with dims %v, requested %v", key, t.Dim, dims))
		}
		return t
	}
	t := NewTile4(dims[0], dims[1], dims[2], dims[3])
	bt.tiles[key] = t
	return t
}

// Put stores a tile under key, replacing any existing tile.
func (bt *BlockTensor4) Put(key BlockKey, t *Tile4) {
	bt.mu.Lock()
	bt.tiles[key] = t
	bt.mu.Unlock()
}

// Acc accumulates scale*src into the tile at key under the tensor's lock,
// creating the tile if absent. This is the shared-memory analogue of
// ADD_HASH_BLOCK.
func (bt *BlockTensor4) Acc(key BlockKey, src *Tile4, scale float64) {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	t, ok := bt.tiles[key]
	if !ok {
		t = NewTile4(src.Dim[0], src.Dim[1], src.Dim[2], src.Dim[3])
		bt.tiles[key] = t
	}
	t.AddScaled(src, scale)
}

// AccChecked is Acc with dimension validation: it reports an error
// instead of panicking when an existing tile's extents differ from
// src's, so task-facing accumulate paths can fail one task instead of
// tearing down the process.
func (bt *BlockTensor4) AccChecked(key BlockKey, src *Tile4, scale float64) error {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	t, ok := bt.tiles[key]
	if !ok {
		t = NewTile4(src.Dim[0], src.Dim[1], src.Dim[2], src.Dim[3])
		bt.tiles[key] = t
	} else if t.Dim != src.Dim {
		return fmt.Errorf("tensor: block %v has dims %v, accumulate of %v", key, t.Dim, src.Dim)
	}
	t.AddScaled(src, scale)
	return nil
}

// NumBlocks returns the number of stored tiles.
func (bt *BlockTensor4) NumBlocks() int {
	bt.mu.RLock()
	defer bt.mu.RUnlock()
	return len(bt.tiles)
}

// Keys returns all stored block keys in lexicographic order.
func (bt *BlockTensor4) Keys() []BlockKey {
	bt.mu.RLock()
	keys := make([]BlockKey, 0, len(bt.tiles))
	for k := range bt.tiles {
		keys = append(keys, k)
	}
	bt.mu.RUnlock()
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	return keys
}

// TotalBytes returns the summed storage of all tiles.
func (bt *BlockTensor4) TotalBytes() int64 {
	bt.mu.RLock()
	defer bt.mu.RUnlock()
	var n int64
	for _, t := range bt.tiles {
		n += t.Bytes()
	}
	return n
}

// Dot returns the inner product with another block tensor over their
// common blocks, accumulated in deterministic key order. The CCSD driver
// uses this as the correlation-energy functional (DESIGN.md §2).
func (bt *BlockTensor4) Dot(o *BlockTensor4) float64 {
	var sum float64
	for _, k := range bt.Keys() {
		ot, ok := o.Tile(k)
		if !ok {
			continue
		}
		t := bt.MustTile(k)
		t.mustRowMajor("Dot")
		ot.mustRowMajor("Dot")
		if t.Dim != ot.Dim {
			panic(fmt.Sprintf("tensor: Dot dims mismatch at %v: %v vs %v", k, t.Dim, ot.Dim))
		}
		for i, v := range t.Data {
			sum += v * ot.Data[i]
		}
	}
	return sum
}

// MaxAbsDiff returns the largest elementwise difference across all blocks
// of two block tensors with identical block structure; it panics if block
// sets differ.
func (bt *BlockTensor4) MaxAbsDiff(o *BlockTensor4) float64 {
	ka, kb := bt.Keys(), o.Keys()
	if len(ka) != len(kb) {
		panic(fmt.Sprintf("tensor: MaxAbsDiff block count %d vs %d", len(ka), len(kb)))
	}
	var d float64
	for i, k := range ka {
		if k != kb[i] {
			panic(fmt.Sprintf("tensor: MaxAbsDiff block sets differ at %v vs %v", k, kb[i]))
		}
		if diff := bt.MustTile(k).MaxAbsDiff(o.MustTile(k)); diff > d {
			d = diff
		}
	}
	return d
}
