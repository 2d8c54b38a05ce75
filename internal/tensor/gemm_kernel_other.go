//go:build !amd64 || purego

package tensor

// Non-amd64 (or purego) builds run the portable tier only.
func hwKernelTier() KernelTier { return TierPortable }

// gemmAsm4x8 is never called when the active tier is TierPortable.
func gemmAsm4x8(kc int64, a, b, acc *float64) {
	panic("tensor: gemmAsm4x8 without asm support")
}

// gemmAsm8x16 is never called when the active tier is TierPortable.
func gemmAsm8x16(kc int64, a, b, acc *float64) {
	panic("tensor: gemmAsm8x16 without asm support")
}

// gemmAsm4x8C is never called when the active tier is TierPortable.
func gemmAsm4x8C(kc int64, a, b, c *float64, ldcBytes int64) {
	panic("tensor: gemmAsm4x8C without asm support")
}

// gemmAsm8x16C is never called when the active tier is TierPortable.
func gemmAsm8x16C(kc int64, a, b, c *float64, ldcBytes int64) {
	panic("tensor: gemmAsm8x16C without asm support")
}

// gemmTN4x8 is never called when the active tier is TierPortable.
func gemmTN4x8(k, strips int64, a *float64, ldaBytes int64, b *float64, ldbBytes int64, c *float64, ldcBytes int64) {
	panic("tensor: gemmTN4x8 without asm support")
}

// packStrip4 is never called when the active tier is TierPortable.
func packStrip4(kc int64, src *float64, ldBytes int64, dst *float64) {
	panic("tensor: packStrip4 without asm support")
}

// packStrip8 is never called when the active tier is TierPortable.
func packStrip8(kc int64, src *float64, ldBytes int64, dst *float64) {
	panic("tensor: packStrip8 without asm support")
}

// packStrip16 is never called when the active tier is TierPortable.
func packStrip16(kc int64, src *float64, ldBytes int64, dst *float64) {
	panic("tensor: packStrip16 without asm support")
}

// fillRandomAsm is never called when the active tier is TierPortable.
func fillRandomAsm(n int64, dst *float64, lanes *[8]uint64, scale float64) {
	panic("tensor: fillRandomAsm without asm support")
}

// fillStrip8 is never called when the active tier is TierPortable.
func fillStrip8(kc int64, dst *float64, lanes *[8]uint64, rowStep uint64, scale float64) {
	panic("tensor: fillStrip8 without asm support")
}

// fillStrip16 is never called when the active tier is TierPortable.
func fillStrip16(kc int64, dst *float64, lanes *[8]uint64, rowStep uint64, scale float64) {
	panic("tensor: fillStrip16 without asm support")
}

// axpyAsm is never called when the active tier is TierPortable.
func axpyAsm(n int64, dst, src *float64, scale float64) {
	panic("tensor: axpyAsm without asm support")
}

// scaleAsm is never called when the active tier is TierPortable.
func scaleAsm(n int64, dst, src *float64, scale float64) {
	panic("tensor: scaleAsm without asm support")
}
