package tensor

import (
	"fmt"
	"math/rand"
	"testing"

	"parsec/internal/team"
)

// TestActiveTierWithinHW pins the only invariant detection must never
// break: the dispatch tier cannot exceed what the hardware supports
// (PARSEC_KERNEL_TIER may clamp it below).
func TestActiveTierWithinHW(t *testing.T) {
	if ActiveKernelTier() > hwKernelTier() {
		t.Fatalf("active tier %v above hardware tier %v", ActiveKernelTier(), hwKernelTier())
	}
	for _, tier := range []KernelTier{TierPortable, TierAVX2, TierAVX512} {
		if tier.String() == "" {
			t.Fatalf("tier %d has empty name", tier)
		}
	}
}

// TestAxpyScaleToMatchScalar pins the vector accumulate kernels bitwise
// to the scalar loops, across lengths that cover the empty, short,
// multiple-of-8, and ragged-tail cases. Bitwise equality is what lets
// Sort4Add, AddScaled, and the GA folds use them without perturbing
// energies.
func TestAxpyScaleToMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lengths := []int{0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 1000, 4096}
	for _, n := range lengths {
		src := make([]float64, n)
		base := make([]float64, n)
		for i := range src {
			src[i] = rng.NormFloat64()
			base[i] = rng.NormFloat64()
		}
		for _, scale := range []float64{0, 1, -1, 0.37, -2.5} {
			wantAdd := append([]float64(nil), base...)
			for i, v := range src {
				wantAdd[i] += scale * v
			}
			gotAdd := append([]float64(nil), base...)
			Axpy(gotAdd, src, scale)
			for i := range gotAdd {
				if gotAdd[i] != wantAdd[i] {
					t.Fatalf("Axpy n=%d scale=%v: [%d] = %v, want %v (tier %v)",
						n, scale, i, gotAdd[i], wantAdd[i], ActiveKernelTier())
				}
			}
			wantSet := make([]float64, n)
			for i, v := range src {
				wantSet[i] = scale * v
			}
			gotSet := make([]float64, n)
			ScaleTo(gotSet, src, scale)
			for i := range gotSet {
				if gotSet[i] != wantSet[i] {
					t.Fatalf("ScaleTo n=%d scale=%v: [%d] = %v, want %v (tier %v)",
						n, scale, i, gotSet[i], wantSet[i], ActiveKernelTier())
				}
			}
		}
	}
	if ActiveKernelTier() >= TierAVX2 {
		// The guards must hold for the asm path too.
		defer func() {
			if recover() == nil {
				t.Fatal("Axpy with short dst did not panic")
			}
		}()
		Axpy(make([]float64, 3), make([]float64, 8), 1)
	}
}

// TestGemmTiersBitwiseEqual pins the AVX-512 micro-kernel bitwise to the
// AVX2 one: per C element both run the same ascending-k sequence of
// fused multiply-adds (zero padding contributes exact +0 terms), so
// widening the register block must not change a single bit. This is the
// property that lets machines of different vector widths in one netrun
// cluster agree on energies exactly.
func TestGemmTiersBitwiseEqual(t *testing.T) {
	if ActiveKernelTier() < TierAVX512 {
		t.Skip("AVX-512 tier not active on this machine/run")
	}
	rng := rand.New(rand.NewSource(17))
	shapes := [][3]int{
		{40, 40, 40},    // just above the blocking cutoff
		{121, 121, 121}, // benzene fused tile
		{130, 37, 257},  // ragged in every blocked dimension
		{8, 16, 300},    // exactly one 8x16 tile
		{9, 17, 64},     // one tile plus a one-wide edge in both axes
		{263, 129, 33},  // prime-ish edges across several macro tiles
	}
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		a := randMat(rng, k, m)
		b := randMat(rng, k, n)
		c512 := randMat(rng, m, n)
		c256 := c512.Clone()

		gemmBlockedCols(a, b, c512, 0, n, nil)
		restore := setKernelTier(TierAVX2)
		gemmBlockedCols(a, b, c256, 0, n, nil)
		restore()

		for i := range c512.Data {
			if c512.Data[i] != c256.Data[i] {
				t.Fatalf("m=%d n=%d k=%d: avx512 and avx2 differ at %d: %v vs %v",
					m, n, k, i, c512.Data[i], c256.Data[i])
			}
		}
	}
}

// TestGemmPMatchesSerial pins the column-split parallel GEMM bitwise to
// the serial kernel, over a zeroed and a filled C, for several part
// counts, and shapes above and below the parallel cutoff. Each C element
// is computed by exactly one part in the same k order, so even the
// floats must match exactly — this is what keeps energies independent
// of how many workers were lent.
func TestGemmPMatchesSerial(t *testing.T) {
	pool4 := team.NewPool(4)
	defer pool4.Close()
	pool3 := team.NewPool(3)
	defer pool3.Close()
	rng := rand.New(rand.NewSource(23))
	shapes := [][3]int{
		{16, 16, 16},    // below the blocking cutoff: direct path
		{64, 64, 64},    // blocked but below the parallel cutoff
		{97, 301, 64},   // wide: several 64-column parts
		{130, 259, 97},  // ragged part boundaries
		{200, 200, 120}, // square-ish above the cutoff
	}
	teams := []struct {
		name string
		par  team.Parallelism
	}{
		{"nil", nil},
		{"pool3", pool3},
		{"pool4", pool4},
	}
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		a := randMat(rng, k, m)
		b := randMat(rng, k, n)
		for _, c0 := range []*Matrix{NewMatrix(m, n), randMat(rng, m, n)} {
			want := c0.Clone()
			Gemm(true, false, 1, a, b, 1, want)
			for _, tm := range teams {
				got := c0.Clone()
				GemmP(tm.par, nil, a, b, got)
				for i := range got.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("m=%d n=%d k=%d team=%s: differs from serial at %d: %v vs %v",
							m, n, k, tm.name, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestGemmPShapePanic pins the dimension check of the parallel entry
// point.
func TestGemmPShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GemmP with mismatched shapes did not panic")
		}
	}()
	GemmP(nil, nil, NewMatrix(5, 4), NewMatrix(6, 7), NewMatrix(4, 7))
}

// FuzzSort4Add drives the blocked and contiguous Sort4Add paths against
// the scatter reference with fuzzer-chosen shapes, permutation, scale,
// and data seed, requiring bitwise equality. Shapes are folded into
// 1..24 per axis, so the fuzzer crosses the block-cutoff boundary and
// the ragged sub-tile edges.
func FuzzSort4Add(f *testing.F) {
	f.Add(uint8(3), uint8(5), uint8(7), uint8(9), uint8(11), int16(64), true)
	f.Add(uint8(11), uint8(11), uint8(11), uint8(11), uint8(0), int16(-100), false)
	f.Add(uint8(16), uint8(16), uint8(16), uint8(16), uint8(23), int16(1), true)
	f.Add(uint8(24), uint8(1), uint8(24), uint8(2), uint8(17), int16(2), false)
	f.Fuzz(func(t *testing.T, d0, d1, d2, d3, permIdx uint8, scaleMilli int16, add bool) {
		dim := [4]int{1 + int(d0)%24, 1 + int(d1)%24, 1 + int(d2)%24, 1 + int(d3)%24}
		perm := allPerms4()[int(permIdx)%24]
		scale := float64(scaleMilli) / 8
		src := NewTile4(dim[0], dim[1], dim[2], dim[3])
		src.FillRandom(uint64(permIdx)+uint64(d0)<<8, 1)
		want := NewTile4Sorted(src, perm)
		want.FillRandom(42, 1)
		got := want.Clone()
		sort4Scatter(want, src, perm, scale, add)
		if add {
			Sort4Add(got, src, perm, scale)
		} else {
			Sort4(got, src, perm, scale)
		}
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("dim=%v perm=%v scale=%v add=%v: differs from scatter at %d: %v vs %v",
					dim, perm, scale, add, i, got.Data[i], want.Data[i])
			}
		}
	})
}

// BenchmarkKernelGemmPar measures the team-split GEMM against the serial
// blocked path on a large square shape (the CI smoke leg runs it once;
// real numbers land in BENCH_kernels.json via ccsim kernels).
func BenchmarkKernelGemmPar(b *testing.B) {
	const m, n, k = 512, 512, 512
	rng := rand.New(rand.NewSource(5))
	a := randMat(rng, k, m)
	bm := randMat(rng, k, n)
	c := NewMatrix(m, n)
	flops := GemmFlops(m, n, k)
	b.Run("serial", func(b *testing.B) {
		b.SetBytes(flops) // report flops/s as bytes/s
		for i := 0; i < b.N; i++ {
			Gemm(true, false, 1, a, bm, 1, c)
		}
	})
	for _, w := range []int{2, 4} {
		tp := team.NewPool(w)
		b.Run(fmt.Sprintf("team%d", w), func(b *testing.B) {
			b.SetBytes(flops)
			for i := 0; i < b.N; i++ {
				GemmP(tp, nil, a, bm, c)
			}
		})
		tp.Close()
	}
}

// BenchmarkKernelAxpy measures the vector accumulate kernel against the
// scalar loop.
func BenchmarkKernelAxpy(b *testing.B) {
	const n = 1 << 16
	src := make([]float64, n)
	dst := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	b.Run("vector", func(b *testing.B) {
		b.SetBytes(16 * n)
		for i := 0; i < b.N; i++ {
			Axpy(dst, src, 1.0000001)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		restore := setKernelTier(TierPortable)
		defer restore()
		b.SetBytes(16 * n)
		for i := 0; i < b.N; i++ {
			Axpy(dst, src, 1.0000001)
		}
	})
}
