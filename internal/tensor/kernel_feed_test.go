package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Tests and benchmarks for what feeds the micro-kernel and what it
// feeds: the assembly strip packers, the accumulate-into-C kernel
// entries, the eight-lane FillRandom and the born-packed panel fill. All of it is data movement
// with a fixed result, so every check is on the bits.

// forEachHostTier runs fn as a subtest under every dispatch tier the
// host supports, from lo up.
func forEachHostTier(t *testing.T, lo KernelTier, fn func(t *testing.T, tier KernelTier)) {
	underHostTiers(lo, func(tier KernelTier) {
		t.Run(tier.String(), func(t *testing.T) { fn(t, tier) })
	})
}

// underHostTiers runs fn once under every dispatch tier the host
// supports, from lo up, restoring the active tier even if fn fails the
// test.
func underHostTiers(lo KernelTier, fn func(tier KernelTier)) {
	for tier := lo; tier <= hwKernelTier(); tier++ {
		func() {
			defer setKernelTier(tier)()
			fn(tier)
		}()
	}
}

// sameBits reports the first index at which two equally long slices
// differ bitwise, or -1.
func sameBits(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// feedDims are the extents the packer test crosses: below, at and just
// past both strip widths, and the benzene, uracil and widest uracil
// tile edges, none of the odd ones a multiple of a strip width (the
// extent is also the source's leading dimension).
var feedDims = []int{1, 7, 8, 9, 16, 17, 121, 210, 225}

// TestStripPackersMatchGoPackers pins the panels the assembly strip
// path packs to the Go packers', over every extent pair, panels that
// start inside the matrix (a GemmP column window whose j0 is no
// multiple of the strip width, a second k block) and kc = 1. The two
// destinations start out different, so a slot either path leaves
// unwritten fails too.
func TestStripPackersMatchGoPackers(t *testing.T) {
	forEachHostTier(t, TierAVX2, func(t *testing.T, tier KernelTier) {
		mr, nr := gemmTierShape()
		rng := rand.New(rand.NewSource(31))
		pack := func(n int, fn func(strips bool, dst []float64)) (got, want []float64) {
			got, want = make([]float64, n), make([]float64, n)
			for i := range got {
				got[i], want[i] = 1e300, -1e300
			}
			fn(true, got)
			fn(false, want)
			return got, want
		}
		for _, k := range feedDims {
			for _, w := range feedDims {
				src := randMat(rng, k, w) // A^T (k x m) or B (k x n)
				for _, pc := range []int{0, 1, k - 1} {
					if pc >= k {
						continue
					}
					kc := k - pc
					got, want := pack(roundUp(w, mr)*kc, func(strips bool, dst []float64) {
						packA(true, 1, src, 0, pc, w, kc, mr, strips, dst)
					})
					if i := sameBits(got, want); i >= 0 {
						t.Fatalf("packA m=%d k=%d pc=%d: strip path differs at %d: %v vs %v", w, k, pc, i, got[i], want[i])
					}
					for _, jc := range []int{0, 5, 100} {
						if jc >= w {
							continue
						}
						nc := w - jc
						got, want := pack(roundUp(nc, nr)*kc, func(strips bool, dst []float64) {
							packB(false, src, pc, jc, kc, nc, nr, strips, dst)
						})
						if i := sameBits(got, want); i >= 0 {
							t.Fatalf("packB n=%d k=%d pc=%d jc=%d: strip path differs at %d: %v vs %v", w, k, pc, jc, i, got[i], want[i])
						}
					}
				}
			}
		}
		// alpha != 1 must not take the strip path: it would drop alpha.
		src := randMat(rng, 9, 17)
		got, want := pack(roundUp(17, mr)*9, func(strips bool, dst []float64) {
			packA(true, 1.25, src, 0, 0, 17, 9, mr, strips, dst)
		})
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("packA alpha=1.25: strips flag changed the panel at %d: %v vs %v", i, got[i], want[i])
		}
	})
}

// TestGemmKernelAccumulatesIntoC pins the accumulate entry of each
// assembly micro-kernel to its stack-block entry followed by the Go
// add, on a tile window inside a wider, non-zero C: the window gets the
// same bits and nothing outside it is touched.
func TestGemmKernelAccumulatesIntoC(t *testing.T) {
	forEachHostTier(t, TierAVX2, func(t *testing.T, tier KernelTier) {
		mr, nr := gemmTierShape()
		block, intoC := gemmAsm4x8, gemmAsm4x8C
		if tier == TierAVX512 {
			block, intoC = gemmAsm8x16, gemmAsm8x16C
		}
		rng := rand.New(rand.NewSource(37))
		const i0, j0 = 1, 3
		for _, kc := range []int{1, 7, 121, 210} {
			a := randMat(rng, kc, mr)
			b := randMat(rng, kc, nr)
			got := randMat(rng, mr+2, nr+5)
			want := got.Clone()
			ldc := got.Cols

			acc := make([]float64, mr*nr)
			block(int64(kc), &a.Data[0], &b.Data[0], &acc[0])
			for r := 0; r < mr; r++ {
				for j := 0; j < nr; j++ {
					want.Data[(i0+r)*ldc+j0+j] += acc[r*nr+j]
				}
			}
			intoC(int64(kc), &a.Data[0], &b.Data[0], &got.Data[i0*ldc+j0], int64(ldc)*8)
			if i := sameBits(got.Data, want.Data); i >= 0 {
				t.Fatalf("kc=%d: accumulate entry differs from block-then-add at (%d,%d): %v vs %v",
					kc, i/ldc, i%ldc, got.Data[i], want.Data[i])
			}
		}
	})
}

// fillRandomScalar is the generator FillRandom must reproduce on every
// tier: SplitMix64, one state step per element.
func fillRandomScalar(data []float64, seed uint64, scale float64) {
	state := seed
	for i := range data {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		data[i] = scale * (2*float64(z>>11)/(1<<53) - 1)
	}
}

// TestFillRandomMatchesScalar pins FillRandom bitwise to the scalar
// generator for every length across the vector body and its tail, and
// to four committed values, so neither a tier nor a later change can
// move the synthetic inputs every committed energy was computed from.
func TestFillRandomMatchesScalar(t *testing.T) {
	forEachHostTier(t, TierPortable, func(t *testing.T, tier KernelTier) {
		rng := rand.New(rand.NewSource(41))
		seeds := []uint64{0, 1, math.MaxUint64, rng.Uint64(), rng.Uint64(), rng.Uint64()}
		for n := 0; n <= 130; n++ {
			got := NewTile4(n, 1, 1, 1)
			want := make([]float64, n)
			for _, seed := range seeds {
				for _, scale := range []float64{0.5, 1, 0.37, -2} {
					got.FillRandom(seed, scale)
					fillRandomScalar(want, seed, scale)
					if i := sameBits(got.Data, want); i >= 0 {
						t.Fatalf("n=%d seed=%#x scale=%v: [%d] = %x, want %x", n, seed, scale, i, got.Data[i], want[i])
					}
				}
			}
		}
		golden := []string{
			"0x1.10a2dec890258p-04",
			"0x1.f75c6d0b2c774p-03",
			"0x1.e24e8bbbecc94p-02",
			"-0x1.c7cf2de237a7p-05",
		}
		tile := NewTile4(16, 1, 1, 1) // long enough for the vector body
		tile.FillRandom(1, 0.5)
		for i, want := range golden {
			if got := fmt.Sprintf("%x", tile.Data[i]); got != want {
				t.Errorf("FillRandom(1, 0.5)[%d] = %s, want %s", i, got, want)
			}
		}
	})
}

// checkKernelFeed is one generated case of the kernel-feed assembly
// against the Go code, from folded fuzz inputs. The packers: a rows x
// cols source (cols is also the leading dimension) packed from row pc and
// column off to the end, as an A^T panel through packA and as a B panel
// through packB, with the strip path against the Go loops, under every
// assembly tier the host runs — so packStrip4 and packStrip8 on the AVX2
// rung, packStrip8 and packStrip16 on the AVX-512 one. The fill: n8*8
// elements of FillRandom (whole multiples of eight, so on the AVX-512
// rung fillRandomAsm writes every one) against the scalar generator. The
// panel fill: a prows x cols tile born packed (checkPanelFill).
func checkKernelFeed(t *testing.T, rows8, cols8, pc8, off8 uint8, n8 uint16, seed uint64, scale float64) {
	t.Helper()
	rows, cols := 1+int(rows8)%64, 1+int(cols8)%240
	pc, off := int(pc8)%rows, int(off8)%cols
	kc, w := rows-pc, cols-off
	src := randMat(rand.New(rand.NewSource(int64(seed))), rows, cols)
	underHostTiers(TierAVX2, func(tier KernelTier) {
		mr, nr := gemmTierShape()
		for _, p := range []struct {
			name string
			size int
			pack func(strips bool, dst []float64)
		}{
			{"packA", roundUp(w, mr) * kc, func(strips bool, dst []float64) {
				packA(true, 1, src, off, pc, w, kc, mr, strips, dst)
			}},
			{"packB", roundUp(w, nr) * kc, func(strips bool, dst []float64) {
				packB(false, src, pc, off, kc, w, nr, strips, dst)
			}},
		} {
			got, want := make([]float64, p.size), make([]float64, p.size)
			for i := range got {
				got[i], want[i] = 1e300, -1e300
			}
			p.pack(true, got)
			p.pack(false, want)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("%v %s rows=%d cols=%d pc=%d off=%d: strip path differs at %d: %v vs %v",
					tier, p.name, rows, cols, pc, off, i, got[i], want[i])
			}
		}
	})
	n := 8 * (1 + int(n8)%512)
	want := make([]float64, n)
	fillRandomScalar(want, seed, scale)
	underHostTiers(TierPortable, func(tier KernelTier) {
		got := NewTile4(n, 1, 1, 1)
		got.FillRandom(seed, scale)
		if i := sameBitsOrNaN(got.Data, want); i >= 0 {
			t.Fatalf("%v FillRandom n=%d seed=%#x scale=%v: [%d] = %x, want %x", tier, n, seed, scale, i, got.Data[i], want[i])
		}
	})
	prows := 1 + (int(rows8)<<8|int(pc8))%300
	checkPanelFill(t, [4]int{1, prows, cols, 1}, seed, scale)
}

// checkPanelFill pins the born-packed fill of a tile with extents dim,
// under every host tier and on both sides (the tier's A and B panel
// widths): unpacking the panel gives FillRandom's row-major values, and
// the panel itself, padding included, is what packA and packB (Go
// loops) make of them — bit for bit.
func checkPanelFill(t *testing.T, dim [4]int, seed uint64, scale float64) {
	t.Helper()
	rows, cols := dim[0]*dim[1], dim[2]*dim[3]
	rm := NewTile4(dim[0], dim[1], dim[2], dim[3])
	fillRandomScalar(rm.Data, seed, scale)
	src := rm.AsMatrix()
	underHostTiers(TierPortable, func(tier KernelTier) {
		for _, kind := range []LayoutKind{PanelA, PanelB} {
			l := PanelLayout(kind)
			w := int(l.Strip)
			p := NewTile4Layout(dim, l)
			for i := range p.Data {
				p.Data[i] = 1e300 // a slot the fill leaves unwritten fails
			}
			p.FillRandom(seed, scale)
			if i := sameBitsOrNaN(p.RowMajorCopy().Data, rm.Data); i >= 0 {
				t.Fatalf("%v %v fill of %v seed=%#x scale=%v: unpacked [%d] = %x, FillRandom %x",
					tier, l, dim, seed, scale, i, p.RowMajorCopy().Data[i], rm.Data[i])
			}
			want := make([]float64, len(p.Data))
			if kind == PanelA {
				packA(true, 1, src, 0, 0, cols, rows, w, false, want)
			} else {
				packB(false, src, 0, 0, rows, cols, w, false, want)
			}
			if i := sameBitsOrNaN(p.Data, want); i >= 0 {
				t.Fatalf("%v %v fill of %v seed=%#x: panel [%d] = %x, packed FillRandom %x", tier, l, dim, seed, i, p.Data[i], want[i])
			}
		}
	})
}

// TestKernelFeedSweep is the seeded sweep of FuzzKernelFeed.
func TestKernelFeedSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	scales := []float64{1, 0.5, -2, 0.37, 1e-300, 3e300}
	for it := 0; it < 1000; it++ {
		checkKernelFeed(t, uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)),
			uint16(rng.Intn(1<<16)), rng.Uint64(), scales[it%len(scales)])
	}
}

// FuzzKernelFeed drives the strip packers, the eight-lane fill and the
// panel fill with fuzzer-chosen panel extents, offsets, fill length,
// seed and scale, requiring the assembly to equal the Go code bit for
// bit on every host tier.
func FuzzKernelFeed(f *testing.F) {
	f.Add(uint8(209), uint8(209), uint8(0), uint8(0), uint16(3359), uint64(1), 0.5) // 210 wide, as on uracil
	f.Add(uint8(0), uint8(16), uint8(0), uint8(1), uint16(0), uint64(0), 1.0)       // kc = 1, offset window
	f.Add(uint8(40), uint8(120), uint8(7), uint8(5), uint16(15), uint64(1<<63), -2.0)
	// Panel fills: uracil's 210 x 210 block (prows 210: every strip of
	// both widths full but the last 16-wide one), a single row, and
	// widths at and one past a strip.
	f.Add(uint8(0), uint8(209), uint8(210), uint8(0), uint16(0), uint64(7), 0.5)
	f.Add(uint8(0), uint8(15), uint8(1), uint8(0), uint16(0), uint64(8), 1.0)
	f.Add(uint8(1), uint8(16), uint8(44), uint8(0), uint16(0), uint64(9), -0.37)
	f.Fuzz(func(t *testing.T, rows8, cols8, pc8, off8 uint8, n8 uint16, seed uint64, scale float64) {
		checkKernelFeed(t, rows8, cols8, pc8, off8, n8, seed, scale)
	})
}

// BenchmarkKernelPack measures packing one uracil-sized panel (210
// rows, 210 wide) of A^T and of B through the Go loops and through the
// assembly strip path of the active tier.
func BenchmarkKernelPack(b *testing.B) {
	if ActiveKernelTier() == TierPortable {
		b.Skip("the portable tier has no strip path")
	}
	const k, w = 210, 210
	mr, nr := gemmTierShape()
	src := randMat(rand.New(rand.NewSource(1)), k, w)
	dst := make([]float64, roundUp(w, nr)*k)
	for _, path := range []struct {
		name   string
		strips bool
	}{{"go", false}, {"strip", true}} {
		b.Run("A-"+path.name, func(b *testing.B) {
			b.SetBytes(16 * k * w)
			for i := 0; i < b.N; i++ {
				packA(true, 1, src, 0, 0, w, k, mr, path.strips, dst)
			}
		})
		b.Run("B-"+path.name, func(b *testing.B) {
			b.SetBytes(16 * k * w)
			for i := 0; i < b.N; i++ {
				packB(false, src, 0, 0, k, w, nr, path.strips, dst)
			}
		})
	}
}

// BenchmarkKernelFill measures FillRandom on a uracil-sized input
// block (16x16x15x14 doubles) on the active tier and on the scalar
// loop.
func BenchmarkKernelFill(b *testing.B) {
	tile := NewTile4(16, 16, 15, 14)
	run := func(b *testing.B) {
		b.SetBytes(tile.Bytes())
		for i := 0; i < b.N; i++ {
			tile.FillRandom(uint64(i), 0.5)
		}
	}
	b.Run(ActiveKernelTier().String(), run)
	if ActiveKernelTier() != TierPortable {
		b.Run("scalar", func(b *testing.B) {
			defer setKernelTier(TierPortable)()
			run(b)
		})
		// The same 256 x 210 tile born packed, as either operand.
		for _, kind := range []LayoutKind{PanelA, PanelB} {
			tile = NewTile4Layout(tile.Dim, PanelLayout(kind))
			b.Run(tile.Layout.String(), run)
		}
	}
}
