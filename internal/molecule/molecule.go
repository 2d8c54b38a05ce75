// Package molecule models the orbital-space structure that determines the
// block (tile) layout of the CCSD tensors. NWChem's TCE partitions the
// occupied and virtual spin-orbital spaces into tiles carrying spin and
// spatial-symmetry (irrep) labels; the tile structure — not the chemistry —
// determines the chains of GEMMs that the paper's icsd_t2_7 subroutine
// executes, so this package is the workload's ground truth.
package molecule

import "fmt"

// SpaceKind distinguishes occupied (hole) from virtual (particle) orbitals.
type SpaceKind int

const (
	Occ  SpaceKind = iota // hole indices (h1, h2, h7, ...)
	Virt                  // particle indices (p3, p4, p5, ...)
)

// String returns "occ" or "virt".
func (s SpaceKind) String() string {
	if s == Occ {
		return "occ"
	}
	return "virt"
}

// Tile is one block of a spin-orbital space.
type Tile struct {
	Space  SpaceKind
	Index  int // tile index within its space (spin-orbital numbering)
	Offset int // first orbital covered
	Size   int // number of orbitals
	Spin   int // 0 = alpha, 1 = beta
	Irrep  int // spatial symmetry label in [0, NIrreps)
}

// System describes a tiled molecular problem.
type System struct {
	Name       string
	NOccupied  int // spatial occupied orbitals (per spin)
	NVirtual   int // spatial virtual orbitals (per spin)
	BasisFns   int // total spatial basis functions
	NIrreps    int
	TileTarget int // requested tile size
	Occ        []Tile
	Virt       []Tile
	Seed       uint64 // seeds the synthetic amplitudes/integrals
}

// String summarizes the system's sizes in one line.
func (s *System) String() string {
	return fmt.Sprintf("%s: %d basis fns (occ %d / virt %d per spin), %d occ + %d virt tiles, %d irreps",
		s.Name, s.BasisFns, s.NOccupied, s.NVirtual, len(s.Occ), len(s.Virt), s.NIrreps)
}

// Tiles returns the tile list for the given space.
func (s *System) Tiles(k SpaceKind) []Tile {
	if k == Occ {
		return s.Occ
	}
	return s.Virt
}

// irrepFor assigns a spatial-symmetry label to tile t of perSpin tiles.
// Real molecules populate irreps unevenly — the totally symmetric
// representation dominates — so labels are drawn from a skewed sequence
// rather than a uniform cycle. The skew produces the chain-length
// variance (and hence load imbalance) the original code's work stealing
// exists to absorb (§IV-D).
func irrepFor(t, nIrreps int) int {
	if nIrreps == 1 {
		return 0
	}
	// A fixed pattern giving irrep 0 roughly twice the weight of irrep 1,
	// which in turn outweighs the rest, repeated over the tile sequence.
	pattern := []int{0, 1, 0, 2, 0, 1, 3, 0, 1, 2, 0, 3, 1, 0, 2, 1}
	return pattern[t%len(pattern)] % nIrreps
}

// tileSpace splits n spatial orbitals per spin into balanced tiles of at
// most target orbitals, duplicated for the two spins (alpha tiles first),
// with skew-weighted irrep labels — the same shape of structure TCE's
// tile_n scheme produces for a molecule without exploiting exact geometry.
func tileSpace(kind SpaceKind, n, target, nIrreps int) []Tile {
	if n <= 0 || target <= 0 {
		panic(fmt.Sprintf("molecule: tileSpace(%d, %d)", n, target))
	}
	perSpin := (n + target - 1) / target
	var tiles []Tile
	idx := 0
	for spin := 0; spin < 2; spin++ {
		off := spin * n
		rem := n
		for t := 0; t < perSpin; t++ {
			size := rem / (perSpin - t)
			tiles = append(tiles, Tile{
				Space:  kind,
				Index:  idx,
				Offset: off,
				Size:   size,
				Spin:   spin,
				Irrep:  irrepFor(t, nIrreps),
			})
			off += size
			rem -= size
			idx++
		}
	}
	return tiles
}

// Custom builds a system from explicit parameters. nOcc and nVirt are
// spatial counts per spin; tiles are duplicated over the two spins.
func Custom(name string, nOcc, nVirt, tileTarget, nIrreps int, seed uint64) *System {
	if nIrreps <= 0 {
		nIrreps = 1
	}
	return &System{
		Name:       name,
		NOccupied:  nOcc,
		NVirtual:   nVirt,
		BasisFns:   nOcc + nVirt,
		NIrreps:    nIrreps,
		TileTarget: tileTarget,
		Occ:        tileSpace(Occ, nOcc, tileTarget, nIrreps),
		Virt:       tileSpace(Virt, nVirt, tileTarget, nIrreps),
		Seed:       seed,
	}
}

// BetaCarotene631G returns a system with the scale of the paper's
// evaluation input: beta-carotene in the 6-31G basis, 472 basis functions
// (C40H56: 148 occupied, 324 virtual spatial orbitals), tiled at the
// TCE-typical tilesize of 40, with 4 symmetry labels standing in for the
// spatial-symmetry pruning of the real integrals.
func BetaCarotene631G() *System {
	return Custom("beta-carotene/6-31G", 148, 324, 40, 4, 0xbe7a)
}

// Benzene631G returns a medium system (66 basis functions) usable for
// simulator runs that finish quickly.
func Benzene631G() *System {
	return Custom("benzene/6-31G", 21, 45, 12, 2, 0xbe52)
}

// Water631G returns a tiny system (13 basis functions) whose full CCSD
// kernel runs in milliseconds with real arithmetic; used by unit tests
// and the real-runtime examples.
func Water631G() *System {
	return Custom("water/6-31G", 5, 8, 3, 2, 0x3a7e)
}

// Uracil631G returns uracil (C4H4N2O2, 88 basis functions): a mid-size
// system between benzene and beta-carotene.
func Uracil631G() *System {
	return Custom("uracil/6-31G", 29, 59, 16, 4, 0x0bac)
}

// Porphin631G returns free-base porphin (C20H14N4, ~244 basis
// functions), the core of the porphyrin systems the TCE's alternative
// task scheduling was demonstrated on (paper ref [13]).
func Porphin631G() *System {
	return Custom("porphin/6-31G", 81, 163, 30, 4, 0x90f1)
}

// Preset returns a named preset system.
func Preset(name string) (*System, error) {
	switch name {
	case "betacarotene", "beta-carotene":
		return BetaCarotene631G(), nil
	case "porphin":
		return Porphin631G(), nil
	case "uracil":
		return Uracil631G(), nil
	case "benzene":
		return Benzene631G(), nil
	case "water":
		return Water631G(), nil
	}
	return nil, fmt.Errorf("molecule: unknown preset %q (want water, benzene, uracil, porphin, or betacarotene)", name)
}

// CustomSpec is the serializable form of a non-preset system: Custom's
// parameters under the JSON names a service submit body, the job journal
// and a netrun worker's environment all carry.
type CustomSpec struct {
	// Name labels the system (empty defaults to "custom").
	Name string `json:"name"`
	// NOccupied, NVirtual, TileTarget, NIrreps, and Seed are the Custom
	// constructor arguments.
	NOccupied  int    `json:"n_occupied"`
	NVirtual   int    `json:"n_virtual"`
	TileTarget int    `json:"tile_target"`
	NIrreps    int    `json:"n_irreps"`
	Seed       uint64 `json:"seed"`
}

// Resolve returns the system a job names: exactly one of a preset name
// and a custom description must be given.
func Resolve(preset string, custom *CustomSpec) (*System, error) {
	switch {
	case preset != "" && custom != nil:
		return nil, fmt.Errorf("molecule: both a preset and a custom system given")
	case custom != nil:
		if custom.NOccupied <= 0 || custom.NVirtual <= 0 || custom.TileTarget <= 0 {
			return nil, fmt.Errorf("molecule: custom system needs positive n_occupied, n_virtual, tile_target")
		}
		name := custom.Name
		if name == "" {
			name = "custom"
		}
		return Custom(name, custom.NOccupied, custom.NVirtual, custom.TileTarget, custom.NIrreps, custom.Seed), nil
	case preset != "":
		return Preset(preset)
	default:
		return nil, fmt.Errorf("molecule: need a preset or a custom system")
	}
}

// PresetNames lists the available presets.
func PresetNames() []string {
	return []string{"water", "benzene", "uracil", "porphin", "betacarotene"}
}

// Check validates internal consistency: tile sizes sum to the space size
// per spin, offsets are contiguous, labels are in range.
func (s *System) Check() error {
	for _, kind := range []SpaceKind{Occ, Virt} {
		tiles := s.Tiles(kind)
		want := s.NOccupied
		if kind == Virt {
			want = s.NVirtual
		}
		sums := [2]int{}
		for i, t := range tiles {
			if t.Index != i {
				return fmt.Errorf("%v tile %d has Index %d", kind, i, t.Index)
			}
			if t.Size <= 0 {
				return fmt.Errorf("%v tile %d has Size %d", kind, i, t.Size)
			}
			if t.Spin != 0 && t.Spin != 1 {
				return fmt.Errorf("%v tile %d has Spin %d", kind, i, t.Spin)
			}
			if t.Irrep < 0 || t.Irrep >= s.NIrreps {
				return fmt.Errorf("%v tile %d has Irrep %d of %d", kind, i, t.Irrep, s.NIrreps)
			}
			sums[t.Spin] += t.Size
		}
		if sums[0] != want || sums[1] != want {
			return fmt.Errorf("%v tiles cover %v orbitals, want %d per spin", kind, sums, want)
		}
	}
	return nil
}
