package tensor

import (
	"fmt"
	"sync"

	"parsec/internal/tensor/pool"
)

// Scratch tiles: pooled Tile4 allocation for task bodies whose buffers
// have a clear single-owner lifetime (the chain C buffer, the SORT
// permutation temporary, reduction inputs). The backing storage comes
// from the size-class pool and the Tile4 headers cycle through their own
// sync.Pool, so a steady-state Get/Put cycle performs no heap allocation.

var tile4HeaderPool = sync.Pool{New: func() any { return new(Tile4) }}

// GetTile4 returns a pooled tile with the given extents and unspecified
// contents, for destinations that are fully overwritten (Sort4 targets,
// GEMM packing). Use GetTile4Zeroed for accumulation buffers.
func GetTile4(d0, d1, d2, d3 int) *Tile4 {
	if d0 < 0 || d1 < 0 || d2 < 0 || d3 < 0 {
		panic(fmt.Sprintf("tensor: GetTile4(%d,%d,%d,%d)", d0, d1, d2, d3))
	}
	return GetTile4Layout([4]int{d0, d1, d2, d3}, Layout{})
}

// GetTile4Layout is GetTile4 for a tile stored in layout l: its storage
// is l.Len(dim) elements, a panel's padding included.
func GetTile4Layout(dim [4]int, l Layout) *Tile4 {
	checkTile(dim, l)
	t := tile4HeaderPool.Get().(*Tile4)
	t.Dim, t.Layout = dim, l
	t.Data = pool.Get(l.Len(dim))
	return t
}

// GetTile4Zeroed returns a pooled, zeroed tile with the given extents.
func GetTile4Zeroed(d0, d1, d2, d3 int) *Tile4 {
	t := GetTile4(d0, d1, d2, d3)
	for i := range t.Data {
		t.Data[i] = 0
	}
	return t
}

// PutTile4 returns a tile obtained from GetTile4 to the pool. Tiles from
// NewTile4 are also accepted (their storage joins the pool if it fits a
// size class). The caller must not retain any reference to t or t.Data.
func PutTile4(t *Tile4) {
	if t == nil {
		return
	}
	pool.Put(t.Data)
	t.Data = nil
	t.Dim, t.Layout = [4]int{}, Layout{}
	tile4HeaderPool.Put(t)
}

// GetTile4In is GetTile4 drawing the backing storage from the given
// worker-local scratch shard; a nil shard falls back to the shared pool.
func GetTile4In(loc *pool.Local, d0, d1, d2, d3 int) *Tile4 {
	if d0 < 0 || d1 < 0 || d2 < 0 || d3 < 0 {
		panic(fmt.Sprintf("tensor: GetTile4In(%d,%d,%d,%d)", d0, d1, d2, d3))
	}
	t := tile4HeaderPool.Get().(*Tile4)
	t.Dim, t.Layout = [4]int{d0, d1, d2, d3}, Layout{}
	t.Data = loc.Get(d0 * d1 * d2 * d3)
	return t
}

// GetTile4ZeroedIn is GetTile4Zeroed drawing from the given worker-local
// scratch shard; a nil shard falls back to the shared pool.
func GetTile4ZeroedIn(loc *pool.Local, d0, d1, d2, d3 int) *Tile4 {
	t := GetTile4In(loc, d0, d1, d2, d3)
	for i := range t.Data {
		t.Data[i] = 0
	}
	return t
}

// PutTile4In returns a tile to the given worker-local scratch shard; a
// nil shard returns the storage to the shared pool.
func PutTile4In(loc *pool.Local, t *Tile4) {
	if t == nil {
		return
	}
	loc.Put(t.Data)
	t.Data = nil
	t.Dim, t.Layout = [4]int{}, Layout{}
	tile4HeaderPool.Put(t)
}
