package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Tests and benchmarks for the direct path of dgemm('T','N'), the one
// every product below the blocking cutoff takes: on the assembly tiers
// gemmTN hands full 4x8 blocks to gemmTN4x8, and the claim is that the
// result is the Go loop's (gemmTNGo) bit for bit.

// sameBitsOrNaN is sameBits where any NaN matches any NaN: when both
// operands of an x86 add or multiply are NaN the result keeps one of
// their payloads, and which one depends on operand order, not on the
// value.
func sameBitsOrNaN(got, want []float64) int {
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// directCase builds one dgemm('T','N') problem below the blocking cutoff
// from the folded fuzz inputs: A (k x m) with runs of +0 and -0 long
// enough to zero whole 4-row blocks and, in one case in four, whole rows
// of A (so every block skips that l), some tiny entries and, in one case
// in four, an infinity; B (k x n) with the same rare infinity; and C
// mostly -0, so a skipped l (C stays -0) and an l that adds +0 (C turns
// +0) come out different bits.
func directCase(m8, n8, k8 uint8, seed int64) (m, n, k int, a, b, c *Matrix) {
	m, n, k = 1+int(m8)%40, 1+int(n8)%40, int(k8)%40
	if m*n*k >= gemmBlockCutoff {
		k = (gemmBlockCutoff - 1) / (m * n)
	}
	rng := rand.New(rand.NewSource(seed))
	withInf := rng.Intn(4) == 0
	zeroRows := rng.Intn(4) == 0
	a, b, c = NewMatrix(k, m), NewMatrix(k, n), NewMatrix(m, n)
	signedZero := func() float64 {
		if rng.Intn(2) == 0 {
			return math.Copysign(0, -1)
		}
		return 0
	}
	for i := 0; i < len(a.Data); {
		if zeroRows && i%m == 0 && rng.Intn(3) == 0 {
			for z, j := signedZero(), 0; j < m; j++ {
				a.Data[i] = z
				i++
			}
			continue
		}
		if rng.Intn(3) == 0 {
			z := signedZero()
			for run := 1 + rng.Intn(9); run > 0 && i < len(a.Data); run-- {
				a.Data[i] = z
				i++
			}
			continue
		}
		v := rng.Float64()*2 - 1
		if rng.Intn(8) == 0 {
			v *= 1e-20
		}
		a.Data[i] = v
		i++
	}
	for i := range b.Data {
		b.Data[i] = rng.Float64()*2 - 1
	}
	if withInf {
		if len(a.Data) > 0 {
			a.Data[rng.Intn(len(a.Data))] = math.Inf(1)
		}
		if len(b.Data) > 0 {
			b.Data[rng.Intn(len(b.Data))] = math.Inf(-1)
		}
	}
	for i := range c.Data {
		c.Data[i] = math.Copysign(0, -1)
		if rng.Intn(4) == 0 {
			c.Data[i] = rng.Float64()*2 - 1
		}
	}
	return m, n, k, a, b, c
}

// checkGemmDirect runs one folded case through gemmTN under every host
// tier and fails unless each result is gemmTNGo's, bit for bit.
func checkGemmDirect(t *testing.T, m8, n8, k8 uint8, seed int64) {
	t.Helper()
	m, n, k, a, b, c0 := directCase(m8, n8, k8, seed)
	want := c0.Clone()
	gemmTNGo(a, b, want)
	underHostTiers(TierPortable, func(tier KernelTier) {
		got := c0.Clone()
		gemmTN(a, b, got)
		if i := sameBitsOrNaN(got.Data, want.Data); i >= 0 {
			t.Fatalf("%v m=%d n=%d k=%d seed=%d: C[%d][%d] = %v (%#x), Go loop %v (%#x)",
				tier, m, n, k, seed, i/n, i%n, got.Data[i], math.Float64bits(got.Data[i]),
				want.Data[i], math.Float64bits(want.Data[i]))
		}
	})
}

// TestGemmDirectMatchesGoLoop is the seeded sweep of FuzzGemmDirect:
// 2,000 generated cases plus, five data seeds each, the shapes that sit
// on every boundary of the 4x8 blocking (m below, at and past 4; n
// below, at and past 8 and 16; k = 0 and 1) and the production tiles
// (16^3, the water shapes).
func TestGemmDirectMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for it := 0; it < 2000; it++ {
		checkGemmDirect(t, uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), rng.Int63())
	}
	for _, m := range []int{1, 3, 4, 5, 8, 16} {
		for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 24} {
			for _, k := range []int{0, 1, 6, 16} {
				for seed := 0; seed < 5; seed++ {
					checkGemmDirect(t, uint8(m-1), uint8(n-1), uint8(k), int64(5*(m*n+k)+seed))
				}
			}
		}
	}
}

// FuzzGemmDirect drives the direct TN path with fuzzer-chosen shapes
// (folded to m, n in 1..40 and k in 0..39 under the blocking cutoff) and
// data seed, requiring gemmTN to equal the Go loop bit for bit on every
// host tier.
func FuzzGemmDirect(f *testing.F) {
	f.Add(uint8(15), uint8(15), uint8(16), int64(1)) // 16^3
	f.Add(uint8(5), uint8(8), uint8(6), int64(2))    // water 6x9x6
	f.Add(uint8(3), uint8(7), uint8(0), int64(3))    // one full block, k = 0
	f.Add(uint8(2), uint8(39), uint8(9), int64(4))   // m < 4, whole zero rows of A
	f.Add(uint8(39), uint8(23), uint8(20), int64(5)) // k clamped, whole zero rows of A
	f.Fuzz(func(t *testing.T, m8, n8, k8 uint8, seed int64) {
		checkGemmDirect(t, m8, n8, k8, seed)
	})
}

// BenchmarkKernelGemmDirect measures the direct TN path on the
// dispatch-shaped 16^3 tile and the four water shapes where the 8-wide
// strip applies: the Go loop against the active tier.
func BenchmarkKernelGemmDirect(b *testing.B) {
	for _, sh := range [][3]int{{16, 16, 16}, {6, 9, 6}, {9, 9, 6}, {9, 9, 9}, {6, 9, 9}} {
		m, n, k := sh[0], sh[1], sh[2]
		b.Run(fmt.Sprintf("go-%dx%dx%d", m, n, k), func(b *testing.B) {
			benchGemm(b, m, n, k, func(a, bb, c *Matrix) {
				gemmTNGo(a, bb, c)
			})
		})
		b.Run(fmt.Sprintf("%s-%dx%dx%d", ActiveKernelTier(), m, n, k), func(b *testing.B) {
			benchGemm(b, m, n, k, func(a, bb, c *Matrix) {
				gemmTN(a, bb, c)
			})
		})
	}
}
