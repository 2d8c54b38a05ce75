package parsec_test

import (
	"fmt"

	"parsec"
)

// ExampleInspect shows the inspection phase (§III-B): the metadata the
// PTG consults — chain count and chain lengths — for a small system.
func ExampleInspect() {
	sys, _ := parsec.Molecule("water")
	w := parsec.Inspect(sys)
	fmt.Println("chains:", w.NumChains())
	fmt.Println("first chain length:", w.ChainLen(0))
	// Output:
	// chains: 38
	// first chain length: 6
}

// ExampleVariants lists the paper's five algorithmic variants (§V).
func ExampleVariants() {
	for _, v := range parsec.Variants() {
		fmt.Println(v)
	}
	// Output:
	// v1: GEMMs in a serial chain, SORTs and WRITEs parallel, priorities
	// v2: GEMMs and SORTs parallel, one WRITE, no priorities
	// v3: GEMMs, SORTs and WRITEs all parallel, priorities
	// v4: GEMMs and SORTs parallel, one WRITE, priorities
	// v5: GEMMs parallel, one SORT and one WRITE, priorities
}

// ExampleRunCCSD executes the ported kernel with real arithmetic and
// compares against the serial reference (§IV-A).
func ExampleRunCCSD() {
	sys, _ := parsec.Molecule("water")
	w := parsec.Inspect(sys)
	v5, _ := parsec.Variant("v5")
	res, _ := parsec.RunCCSD(w, v5, 2)
	ref := parsec.ReferenceEnergy(w)
	fmt.Printf("agree to 12 digits: %v\n", abs(res.Energy-ref) < 1e-12*abs(ref))
	// Output:
	// agree to 12 digits: true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
