package tensor

// Accumulate kernels: the dst += scale*src and dst = scale*src inner
// loops shared by Sort4Add, Tile4.AddScaled, the REDUCE task bodies,
// and the Global Arrays ordered-accumulation fold (ga.Store.AccOrdered
// and its flush). On the AVX2+ tiers these dispatch to 256-bit assembly that
// uses unfused multiply and add, so every tier — vector or scalar —
// produces bitwise identical floats.

// axpyMinLen is the slice length below which the call overhead of the
// vector kernel exceeds its win; shorter runs take the scalar loop.
const axpyMinLen = 16

// Axpy accumulates dst[i] += scale*src[i] over the length of src,
// panicking if dst is shorter. The result is bitwise identical across
// the kernel tiers (the vector path rounds each multiply and add
// exactly like the scalar loop).
func Axpy(dst, src []float64, scale float64) {
	n := len(src)
	if len(dst) < n {
		panic("tensor: Axpy dst shorter than src")
	}
	dst = dst[:n]
	if activeTier >= TierAVX2 && n >= axpyMinLen {
		q := n &^ 7
		axpyAsm(int64(q), &dst[0], &src[0], scale)
		dst, src = dst[q:], src[q:]
	}
	for i, v := range src {
		dst[i] += scale * v
	}
}

// ScaleTo assigns dst[i] = scale*src[i] over the length of src,
// panicking if dst is shorter.
func ScaleTo(dst, src []float64, scale float64) {
	n := len(src)
	if len(dst) < n {
		panic("tensor: ScaleTo dst shorter than src")
	}
	dst = dst[:n]
	if activeTier >= TierAVX2 && n >= axpyMinLen {
		q := n &^ 7
		scaleAsm(int64(q), &dst[0], &src[0], scale)
		dst, src = dst[q:], src[q:]
	}
	for i, v := range src {
		dst[i] = scale * v
	}
}
