package tensor

import "fmt"

// Tile4 is a dense 4-index tile, the unit of data the TCE-generated CCSD
// code moves through Global Arrays and feeds to GEMM and SORT_4. It is
// stored in row-major (last index fastest) order unless Layout says it
// is a GEMM panel (layout.go), which only the blocked GEMM and the
// layout-aware calls — FillRandom, Clone, RowMajorCopy, AsMatrix — may
// read; every element-wise operation panics on one.
type Tile4 struct {
	Dim    [4]int
	Data   []float64
	Layout Layout
}

// NewTile4 returns a zeroed tile with the given extents.
func NewTile4(d0, d1, d2, d3 int) *Tile4 {
	if d0 < 0 || d1 < 0 || d2 < 0 || d3 < 0 {
		panic(fmt.Sprintf("tensor: NewTile4(%d,%d,%d,%d)", d0, d1, d2, d3))
	}
	return &Tile4{Dim: [4]int{d0, d1, d2, d3}, Data: make([]float64, d0*d1*d2*d3)}
}

// Len returns the number of stored elements (a panel's include its
// padding).
func (t *Tile4) Len() int { return len(t.Data) }

// Bytes returns the storage size in bytes.
func (t *Tile4) Bytes() int64 { return int64(len(t.Data)) * 8 }

// Index returns the flat offset of element (i0,i1,i2,i3) in a row-major
// tile.
func (t *Tile4) Index(i0, i1, i2, i3 int) int {
	t.mustRowMajor("Index")
	return ((i0*t.Dim[1]+i1)*t.Dim[2]+i2)*t.Dim[3] + i3
}

// At returns the element at (i0,i1,i2,i3).
func (t *Tile4) At(i0, i1, i2, i3 int) float64 { return t.Data[t.Index(i0, i1, i2, i3)] }

// Set assigns the element at (i0,i1,i2,i3).
func (t *Tile4) Set(i0, i1, i2, i3 int, v float64) { t.Data[t.Index(i0, i1, i2, i3)] = v }

// Clone returns a deep copy of the tile, in its layout.
func (t *Tile4) Clone() *Tile4 {
	c := &Tile4{Dim: t.Dim, Layout: t.Layout, Data: make([]float64, len(t.Data))}
	copy(c.Data, t.Data)
	return c
}

// Zero sets all elements to zero.
func (t *Tile4) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// AsMatrix views the tile as a (Dim0*Dim1) x (Dim2*Dim3) matrix sharing
// the same backing storage and layout; mutations are visible in both
// views.
func (t *Tile4) AsMatrix() *Matrix {
	return &Matrix{Rows: t.Dim[0] * t.Dim[1], Cols: t.Dim[2] * t.Dim[3], Data: t.Data, Layout: t.Layout}
}

// AddScaled accumulates s * src into t elementwise. Shapes must match.
func (t *Tile4) AddScaled(src *Tile4, s float64) {
	t.mustRowMajor("AddScaled")
	src.mustRowMajor("AddScaled")
	if t.Dim != src.Dim {
		panic(fmt.Sprintf("tensor: AddScaled shape mismatch %v vs %v", t.Dim, src.Dim))
	}
	Axpy(t.Data, src.Data, s)
}

// MaxAbsDiff returns the largest absolute elementwise difference between
// two same-shaped tiles.
func (t *Tile4) MaxAbsDiff(o *Tile4) float64 {
	t.mustRowMajor("MaxAbsDiff")
	o.mustRowMajor("MaxAbsDiff")
	if t.Dim != o.Dim {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	var d float64
	for i, v := range t.Data {
		diff := v - o.Data[i]
		if diff < 0 {
			diff = -diff
		}
		if diff > d {
			d = diff
		}
	}
	return d
}

// SortedDims returns the extents of the destination tile of Sort4 with the
// given permutation: dim[k] of the output equals Dim[perm[k]] of the input.
func (t *Tile4) SortedDims(perm [4]int) [4]int {
	var d [4]int
	for k, p := range perm {
		d[k] = t.Dim[p]
	}
	return d
}

func checkPerm(perm [4]int) {
	var seen [4]bool
	for _, p := range perm {
		if p < 0 || p > 3 || seen[p] {
			panic(fmt.Sprintf("tensor: invalid permutation %v", perm))
		}
		seen[p] = true
	}
}

// Sort4 is the TCE tce_sort_4 kernel: it remaps src into dst so that
// dst[i[perm[0]], i[perm[1]], i[perm[2]], i[perm[3]]] = scale * src[i0,i1,i2,i3],
// overwriting dst. Despite the historical name it performs no sorting of
// values — only an index permutation with a scale factor (§IV-A).
func Sort4(dst, src *Tile4, perm [4]int, scale float64) {
	sort4Impl(dst, src, perm, scale, false)
}

// Sort4Add is Sort4 with accumulation: dst[...] += scale * src[...].
func Sort4Add(dst, src *Tile4, perm [4]int, scale float64) {
	sort4Impl(dst, src, perm, scale, true)
}

// sort4Strides returns the destination strides in source index order:
// moving src index k by one moves the destination offset by
// dstStride[position of k in perm].
func sort4Strides(dst *Tile4, perm [4]int) [4]int {
	var pos [4]int
	for k, p := range perm {
		pos[p] = k
	}
	dstStride := [4]int{
		dst.Dim[1] * dst.Dim[2] * dst.Dim[3],
		dst.Dim[2] * dst.Dim[3],
		dst.Dim[3],
		1,
	}
	var str [4]int
	for k := 0; k < 4; k++ {
		str[k] = dstStride[pos[k]]
	}
	return str
}

func sort4Impl(dst, src *Tile4, perm [4]int, scale float64, add bool) {
	dst.mustRowMajor("Sort4")
	src.mustRowMajor("Sort4")
	checkPerm(perm)
	want := src.SortedDims(perm)
	if dst.Dim != want {
		panic(fmt.Sprintf("tensor: Sort4 dst dims %v, want %v for perm %v of %v",
			dst.Dim, want, perm, src.Dim))
	}
	// Blocked paths (sort4_blocked.go) keep either reads or writes
	// contiguous on cache-sized sub-tiles; tiny tiles (the water system)
	// take the direct strided scatter below.
	if len(src.Data) >= sort4BlockCutoff {
		if perm[3] == 3 {
			sort4Contig(dst, src, perm, scale, add)
		} else {
			sort4Blocked(dst, src, perm, scale, add)
		}
		return
	}
	sort4Scatter(dst, src, perm, scale, add)
}

// sort4Scatter is the direct loop nest: sequential reads, strided
// writes. It is the small-tile path and the reference the blocked
// kernels are property-tested against.
func sort4Scatter(dst, src *Tile4, perm [4]int, scale float64, add bool) {
	str := sort4Strides(dst, perm)
	d0, d1, d2, d3 := src.Dim[0], src.Dim[1], src.Dim[2], src.Dim[3]
	s := src.Data
	idx := 0
	for i0 := 0; i0 < d0; i0++ {
		o0 := i0 * str[0]
		for i1 := 0; i1 < d1; i1++ {
			o1 := o0 + i1*str[1]
			for i2 := 0; i2 < d2; i2++ {
				o2 := o1 + i2*str[2]
				if add {
					for i3 := 0; i3 < d3; i3++ {
						dst.Data[o2+i3*str[3]] += scale * s[idx]
						idx++
					}
				} else {
					for i3 := 0; i3 < d3; i3++ {
						dst.Data[o2+i3*str[3]] = scale * s[idx]
						idx++
					}
				}
			}
		}
	}
}

// Sort4Flops returns the modeled arithmetic of a SORT_4 on a tile of n
// elements. The kernel is pure memory movement, so this is always zero;
// cost models account for it through Sort4Bytes instead.
func Sort4Flops(n int) int64 { return 0 }

// Sort4Bytes returns the memory traffic of one SORT_4 over a tile of n
// elements: n float64 reads plus n float64 writes.
func Sort4Bytes(n int) int64 { return 16 * int64(n) }

// splitMixGamma is the SplitMix64 increment: element e of a fill takes
// its value from the state seed + (e+1)*splitMixGamma.
const splitMixGamma = 0x9e3779b97f4a7c15

// FillRandom fills the tile with deterministic pseudo-random values in
// [-scale, scale) derived from the seed, for building reproducible
// synthetic amplitudes and integrals. The values are the same bits on
// every tier: the AVX-512 tier runs eight elements' generators side by
// side (fillRandomAsm), the scalar loop below finishes the tail and is
// the whole fill everywhere else. Element e of the row-major order gets
// the same value in every layout: a panel is filled in place
// (fillPanel), bit for bit FillRandom followed by packing.
func (t *Tile4) FillRandom(seed uint64, scale float64) {
	if t.Layout.Kind != RowMajor {
		t.fillPanel(seed, scale)
		return
	}
	data := t.Data
	state := seed
	if q := len(data) &^ 7; q > 0 && activeTier == TierAVX512 {
		var lanes [8]uint64
		for i := range lanes {
			lanes[i] = seed + uint64(i+1)*splitMixGamma
		}
		fillRandomAsm(int64(q), &data[0], &lanes, scale)
		state += uint64(q) * splitMixGamma
		data = data[q:]
	}
	for i := range data {
		state += splitMixGamma
		data[i] = splitMix(state, scale)
	}
}

// splitMix is the value of the SplitMix64 generator in state state,
// mapped to [-scale, scale).
func splitMix(state uint64, scale float64) float64 {
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return scale * (2*float64(z>>11)/(1<<53) - 1)
}
