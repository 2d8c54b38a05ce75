package ptg

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// lookupCase is one generated class domain: the args it emits, in
// emission order, within a box of the given origin and extents.
type lookupCase struct {
	params  int
	lo, ext [MaxParams]int
	emitted []Args
	dup     bool // one emission repeats an earlier one
}

// genLookupCase draws a domain of 1–3 params over a box with negative
// and positive coordinates. A sparse case keeps few of the box's slots
// but pins two opposite corners, so its emitted args span the whole box;
// a dense one keeps each slot with a probability of at least a third.
// Shuffled cases emit out of args order.
func genLookupCase(rng *rand.Rand, params int, sparse, shuffle, dup bool) lookupCase {
	c := lookupCase{params: params, dup: dup}
	box := 1
	for k := 0; k < params; k++ {
		c.lo[k], c.ext[k] = rng.Intn(11)-5, 1+rng.Intn(6)
		if sparse {
			c.ext[k] += 6
		}
		box *= c.ext[k]
	}
	for k := params; k < MaxParams; k++ {
		c.ext[k] = 1
	}
	keep := 0.34 + 0.66*rng.Float64()
	if sparse {
		keep = 0.15 * rng.Float64()
	}
	for slot := 0; slot < box; slot++ {
		a := c.at(slot)
		if rng.Float64() < keep || slot == 0 || (sparse && slot == box-1) {
			c.emitted = append(c.emitted, a)
		}
	}
	if shuffle {
		rng.Shuffle(len(c.emitted), func(i, j int) { c.emitted[i], c.emitted[j] = c.emitted[j], c.emitted[i] })
	}
	if dup {
		a := c.emitted[rng.Intn(len(c.emitted))]
		at := rng.Intn(len(c.emitted) + 1)
		c.emitted = append(c.emitted[:at], append([]Args{a}, c.emitted[at:]...)...)
	}
	return c
}

// at returns the args of a box slot, row-major over the params.
func (c *lookupCase) at(slot int) Args {
	var a Args
	for k := MaxParams - 1; k >= 0; k-- {
		a[k] = c.lo[k] + slot%c.ext[k]
		slot /= c.ext[k]
	}
	return a
}

// checkLookupCase builds a graph whose class X has the case's domain,
// behind a class of three instances so X's ordinals do not start at 0,
// and checks Tracker.Instance over the box grown by one step on every
// side: each emitted args found at its ordinal, every other point nil. A
// duplicate emission must panic instead. It returns which lookup index
// the skeleton chose for X.
func checkLookupCase(t *testing.T, c lookupCase) (path string) {
	t.Helper()
	g := NewGraph("lookup")
	pre := g.Class("PRE")
	pre.Domain = func(emit func(Args)) {
		for i := 0; i < 3; i++ {
			emit(A1(i))
		}
	}
	x := g.Class("X")
	x.Domain = func(emit func(Args)) {
		for _, a := range c.emitted {
			emit(a)
		}
	}
	if c.dup {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "twice") {
				t.Fatalf("duplicate emission in %v: recovered %v", c.emitted, r)
			}
		}()
	}
	tr, err := NewTracker(g)
	if err != nil {
		t.Fatal(err)
	}
	if c.dup {
		t.Fatalf("duplicate emission in %v accepted", c.emitted)
	}
	ordinal := make(map[Args]int, len(c.emitted))
	for i, a := range c.emitted {
		ordinal[a] = 3 + i
	}
	// Walk the box grown by one on each side of each of its params.
	var grown lookupCase
	n := 1
	for k := 0; k < MaxParams; k++ {
		grown.lo[k], grown.ext[k] = c.lo[k], c.ext[k]
		if k < c.params {
			grown.lo[k], grown.ext[k] = c.lo[k]-1, c.ext[k]+2
		}
		n *= grown.ext[k]
	}
	for slot := 0; slot < n; slot++ {
		a := grown.at(slot)
		in := tr.Instance(TaskRef{"X", a})
		want, ok := ordinal[a]
		switch {
		case ok && (in == nil || in.Seq != want || in.Ref.Args != a):
			t.Fatalf("Instance(X%v) = %v, want seq %d (emitted %v)", a, in, want, c.emitted)
		case !ok && in != nil:
			t.Fatalf("Instance(X%v) = %v, want nil (emitted %v)", a, in, c.emitted)
		}
	}
	// A stray trailing param, and an arg outside int32.
	a := c.emitted[0]
	if c.params < MaxParams {
		a[c.params] = 1
		if in := tr.Instance(TaskRef{"X", a}); in != nil {
			t.Fatalf("Instance(X%v) with a stray param = %v", a, in)
		}
	}
	if in := tr.Instance(TaskRef{"X", A1(1 << 40)}); in != nil {
		t.Fatalf("Instance(X(1<<40)) = %v", in)
	}
	switch sc := &tr.sk.classes[1]; {
	case sc.dense != nil:
		return "dense"
	case sc.sorted != nil:
		return "sorted"
	}
	return "in order"
}

// TestSkeletonLookupSweep drives Tracker.Instance over generated domains
// — 1 to 3 params, negative args, holes, boxes on both sides of the
// dense-index threshold, emission in and out of args order, and
// duplicate emissions — and requires every lookup path to be taken.
func TestSkeletonLookupSweep(t *testing.T) {
	paths := map[string]int{}
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := genLookupCase(rng, 1+int(seed%3), seed%2 == 0, seed%4 >= 2, seed%7 == 0)
		if path := checkLookupCase(t, c); !c.dup {
			paths[path]++
		}
	}
	t.Logf("lookup paths taken: %v", paths)
	for _, path := range []string{"dense", "sorted", "in order"} {
		if paths[path] == 0 {
			t.Errorf("no generated domain took the %s lookup path: %v", path, paths)
		}
	}
}

// FuzzSkeletonLookup is TestSkeletonLookupSweep's check over
// fuzz-chosen domains.
func FuzzSkeletonLookup(f *testing.F) {
	f.Add(int64(1), uint8(1), false, false, false)
	f.Add(int64(2), uint8(2), true, true, false)
	f.Add(int64(3), uint8(3), false, true, true)
	f.Add(int64(4), uint8(3), true, false, true)
	f.Fuzz(func(t *testing.T, seed int64, params uint8, sparse, shuffle, dup bool) {
		rng := rand.New(rand.NewSource(seed))
		checkLookupCase(t, genLookupCase(rng, 1+int(params%MaxParams), sparse, shuffle, dup))
	})
}

// TestInitialReadyRunOrder: the plan's ready run is InitialReady in the
// order a priority queue pops it — priority descending, ties in creation
// order — for priorities that pack into the sort key (negative ones and
// the int32 extremes included) and for a graph with one that does not.
func TestInitialReadyRunOrder(t *testing.T) {
	for _, wide := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		prios := make([]int64, 500)
		for i := range prios {
			prios[i] = int64(rng.Intn(9) - 4)
		}
		prios[10], prios[20] = math.MaxInt32, math.MinInt32
		if wide {
			prios[30] = math.MaxInt32 + 1
		}
		g := NewGraph("ready")
		x := g.Class("X")
		x.Domain = func(emit func(Args)) {
			for i := range prios {
				emit(A1(i))
			}
		}
		x.Priority = func(a Args) int64 { return prios[a[0]] }
		tr, err := NewTracker(g)
		if err != nil {
			t.Fatal(err)
		}
		want := tr.InitialReady()
		slices.SortStableFunc(want, func(a, b *Instance) int { return cmp.Compare(b.Priority, a.Priority) })
		if got := tr.AppendInitialReady(nil); !slices.Equal(got, want) {
			t.Errorf("wide=%v: ready run %v, want %v", wide, got, want)
		}
	}
}
