package tensor

import "os"

// KernelTier identifies one rung of the micro-kernel dispatch ladder
// (DESIGN.md §13). Every tier computes identical results on the shared
// packed-panel format; higher tiers only widen the register block and
// move the data around it faster. The two assembly tiers are bitwise
// identical to each other (same fused multiply-add sequence per C
// element, and their strip packers and accumulate-into-C kernel entries
// only copy and add); the portable tier differs in the last ulp because
// Go emits separate multiply and add. Below the blocking cutoff all three
// tiers are the same bits: the assembly tiers' direct TN block does the
// Go loop's unfused multiply and add in the Go loop's order.
// Tile4.FillRandom is the same bits on all three.
type KernelTier int32

const (
	// TierPortable is the pure-Go fallback: the 4x4 scalar GEMM
	// micro-kernel, the direct Go loops and scalar accumulate loops.
	// Always available; the reference the assembly tiers are
	// property-tested against.
	TierPortable KernelTier = iota
	// TierAVX2 is the 4x8 AVX2+FMA GEMM micro-kernel with its ymm strip
	// packers, plus the unfused 4x8 direct TN block (which TierAVX512
	// runs too) and the vector axpy/scale kernels, entered when CPUID
	// reports FMA+AVX2 with OS-enabled YMM state. The fill stays scalar
	// here: AVX2 has no 64-bit vector multiply.
	TierAVX2
	// TierAVX512 is the 8x16 zmm FMA GEMM micro-kernel above the AVX2
	// path with its strip packers, and the eight-lane FillRandom,
	// entered when CPUID reports AVX-512F and AVX-512DQ (the fill's
	// VPMULLQ and VCVTUQQ2PD) with OS-enabled ZMM state; an F-only part
	// runs TierAVX2. The axpy/scale kernels stay on the 256-bit path
	// (they are memory-bound; wider vectors buy nothing).
	TierAVX512
)

// String names the tier the way the PARSEC_KERNEL_TIER variable spells
// it.
func (t KernelTier) String() string {
	switch t {
	case TierAVX2:
		return "avx2"
	case TierAVX512:
		return "avx512"
	default:
		return "portable"
	}
}

// activeTier is the dispatch decision every kernel call reads: the
// hardware's best tier, clamped by the PARSEC_KERNEL_TIER environment
// variable ("portable", "avx2", "avx512", or "auto"/""). Fixed at init;
// tests force it through setKernelTier.
var activeTier = detectTier()

func detectTier() KernelTier {
	t := hwKernelTier()
	switch os.Getenv("PARSEC_KERNEL_TIER") {
	case "portable":
		t = TierPortable
	case "avx2":
		if t > TierAVX2 {
			t = TierAVX2
		}
	}
	// "avx512", "auto", "", and unknown values keep the detected tier: the
	// variable can only forbid capabilities, never invent them.
	return t
}

// ActiveKernelTier reports the micro-kernel tier the dense kernels are
// dispatching to, for benchmark labels and environment reports.
func ActiveKernelTier() KernelTier { return activeTier }

// setKernelTier forces a dispatch tier and returns a restore function,
// for tests and benchmarks that pin a specific path. Forcing a tier the
// hardware cannot run panics (the caller should have skipped). Not safe
// to call concurrently with running kernels.
func setKernelTier(t KernelTier) func() {
	if t > hwKernelTier() {
		panic("tensor: setKernelTier beyond hardware support")
	}
	prev := activeTier
	activeTier = t
	return func() { activeTier = prev }
}
