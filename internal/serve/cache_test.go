package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"parsec/internal/ccsd"
	"parsec/internal/molecule"
)

// keyFor resolves a variant/recipe string plus overrides to its plan
// key, the way Submit does: spec → resolve → recipe → shape → key.
func keyFor(t *testing.T, sys *molecule.System, variant string, seg, span, nodes int) string {
	t.Helper()
	_, recipe, err := JobSpec{Preset: "water", Variant: variant, SegmentHeight: seg, WriteSpan: span}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	return PlanKey(sys, recipe.MustShape(), nodes)
}

// compileWater compiles the water plan, counting invocations.
func compileWater(n *atomic.Int64) func() (*ccsd.CompiledPlan, error) {
	return func() (*ccsd.CompiledPlan, error) {
		n.Add(1)
		spec, err := ccsd.VariantByName("v5")
		if err != nil {
			return nil, err
		}
		return ccsd.Compile(molecule.Water631G(), spec, ccsd.Options{Nodes: 1}), nil
	}
}

// TestCacheHitMissCounters pins the counter semantics: first Get of a
// key is a miss, every later Get is a hit.
func TestCacheHitMissCounters(t *testing.T) {
	c := NewPlanCache(4)
	var compiles atomic.Int64
	key := keyFor(t, molecule.Water631G(), "v5", 0, 0, 1)

	p1, hit, err := c.Get(key, compileWater(&compiles))
	if err != nil || hit || p1 == nil {
		t.Fatalf("first Get: plan=%v hit=%v err=%v, want miss with plan", p1, hit, err)
	}
	p2, hit, err := c.Get(key, compileWater(&compiles))
	if err != nil || !hit {
		t.Fatalf("second Get: hit=%v err=%v, want hit", hit, err)
	}
	if p2 != p1 {
		t.Fatal("cache returned a different plan pointer on hit")
	}
	if n := compiles.Load(); n != 1 {
		t.Fatalf("compile ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

// TestCacheLRUEviction fills a cap-2 cache with three keys and checks
// the least recently used one is evicted.
func TestCacheLRUEviction(t *testing.T) {
	c := NewPlanCache(2)
	var compiles atomic.Int64
	keys := []string{"k-a", "k-b", "k-c"}
	for _, k := range keys[:2] {
		if _, _, err := c.Get(k, compileWater(&compiles)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k-a so k-b becomes the LRU victim.
	if _, hit, _ := c.Get(keys[0], compileWater(&compiles)); !hit {
		t.Fatal("k-a should be cached")
	}
	if _, _, err := c.Get(keys[2], compileWater(&compiles)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction", st)
	}
	if _, hit, _ := c.Get(keys[0], compileWater(&compiles)); !hit {
		t.Fatal("k-a should have survived eviction")
	}
	// Checked after k-a: this miss re-inserts k-b and evicts another
	// entry, so it must come last.
	if _, hit, _ := c.Get(keys[1], compileWater(&compiles)); hit {
		t.Fatal("k-b should have been evicted")
	}
}

// TestCacheSingleflight launches many concurrent Gets of one key and
// checks the compile ran exactly once, with every caller receiving the
// same plan.
func TestCacheSingleflight(t *testing.T) {
	c := NewPlanCache(4)
	var compiles atomic.Int64
	key := keyFor(t, molecule.Water631G(), "v5", 0, 0, 1)

	const callers = 32
	plans := make([]*ccsd.CompiledPlan, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			p, _, err := c.Get(key, compileWater(&compiles))
			if err != nil {
				t.Error(err)
			}
			plans[i] = p
		}(i)
	}
	close(start)
	wg.Wait()

	if n := compiles.Load(); n != 1 {
		t.Fatalf("compile ran %d times under %d concurrent Gets, want 1", n, callers)
	}
	for i := 1; i < callers; i++ {
		if plans[i] != plans[0] {
			t.Fatalf("caller %d got a different plan pointer", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Fatalf("stats = %+v, want 1 miss / %d hits", st, callers-1)
	}
}

// TestCacheCompileErrorNotCached pins that a failed compile is evicted
// so the next Get retries instead of replaying the error forever.
func TestCacheCompileErrorNotCached(t *testing.T) {
	c := NewPlanCache(4)
	boom := errors.New("boom")
	var calls atomic.Int64
	fail := func() (*ccsd.CompiledPlan, error) { calls.Add(1); return nil, boom }

	if _, _, err := c.Get("k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	var compiles atomic.Int64
	p, hit, err := c.Get("k", compileWater(&compiles))
	if err != nil || hit || p == nil {
		t.Fatalf("retry after error: plan=%v hit=%v err=%v, want fresh miss", p, hit, err)
	}
	if calls.Load() != 1 || compiles.Load() != 1 {
		t.Fatalf("calls = %d, compiles = %d, want 1 and 1", calls.Load(), compiles.Load())
	}
}

// TestCacheInFlightNotEvicted keeps a cap-1 cache compiling one key
// while a second key is admitted: the in-flight entry must survive and
// deliver its plan to the waiter.
func TestCacheInFlightNotEvicted(t *testing.T) {
	c := NewPlanCache(1)
	gate := make(chan struct{})
	var compiles atomic.Int64

	done := make(chan *ccsd.CompiledPlan)
	go func() {
		p, _, _ := c.Get("slow", func() (*ccsd.CompiledPlan, error) {
			<-gate
			return compileWater(&compiles)()
		})
		done <- p
	}()
	// Admit another key while "slow" compiles; eviction must skip it.
	if _, _, err := c.Get("fast", compileWater(&compiles)); err != nil {
		t.Fatal(err)
	}
	close(gate)
	if p := <-done; p == nil {
		t.Fatal("in-flight entry lost its plan")
	}
	// The waiter-side entry is still usable.
	if p, hit, _ := c.Get("slow", compileWater(&compiles)); p == nil || !hit {
		t.Log("slow was evicted after completing — acceptable for cap-1, but plan must recompile cleanly")
	}
}

// TestPlanKeyDistinguishesInputs checks the content key separates every
// plan-affecting dimension — including the recipe dimensions the
// pre-recipe key never carried (tree arity, priority scheme) — and
// ignores none of them.
func TestPlanKeyDistinguishesInputs(t *testing.T) {
	base := keyFor(t, molecule.Water631G(), "v5", 0, 0, 1)
	variants := map[string]string{
		"system":  keyFor(t, molecule.Benzene631G(), "v5", 0, 0, 1),
		"variant": keyFor(t, molecule.Water631G(), "v4", 0, 0, 1),
		"segment": keyFor(t, molecule.Water631G(), "v5", 2, 0, 1),
		"span":    keyFor(t, molecule.Water631G(), "v5", 0, 2, 1),
		"nodes":   keyFor(t, molecule.Water631G(), "v5", 0, 0, 4),
		"arity":   keyFor(t, molecule.Water631G(), "seg=1,tree=4,fission=none", 0, 0, 1),
		"prio":    keyFor(t, molecule.Water631G(), "seg=1,fission=none,prio=none", 0, 0, 1),
	}
	seen := map[string]string{base: "base"}
	for dim, k := range variants {
		if prev, dup := seen[k]; dup {
			t.Errorf("key for %s collides with %s", dim, prev)
		}
		seen[k] = dim
	}
	if again := keyFor(t, molecule.Water631G(), "v5", 0, 0, 1); again != base {
		t.Error("key is not deterministic")
	}
	for dim, k := range variants {
		if len(k) != 64 {
			t.Errorf("%s key is not a sha256 hex: %q", dim, k)
		}
	}
}

// TestPlanKeyUnifiesEquivalentSpellings pins the other half of the key
// contract: different spellings of the same resolved shape must share a
// cache entry. "v5" and its flat grammar form are one plan; a moot
// dimension (tree arity under a full chain, span under fissioned
// writes) must not fork the key; and an explicit seg override equal to
// the recipe's own height changes nothing.
func TestPlanKeyUnifiesEquivalentSpellings(t *testing.T) {
	sys := molecule.Water631G()
	groups := map[string][2]string{
		"v5-flat":     {keyFor(t, sys, "v5", 0, 0, 1), keyFor(t, sys, "seg=1,fission=none", 0, 0, 1)},
		"v3-flat":     {keyFor(t, sys, "v3", 0, 0, 1), keyFor(t, sys, "seg=1,fission=writes", 0, 0, 1)},
		"moot-tree":   {keyFor(t, sys, "v1", 0, 0, 1), keyFor(t, sys, "seg=full,tree=7,fission=writes", 0, 0, 1)},
		"seg-via-cli": {keyFor(t, sys, "seg=2,fission=none", 0, 0, 1), keyFor(t, sys, "v5", 2, 0, 1)},
	}
	for name, pair := range groups {
		if pair[0] != pair[1] {
			t.Errorf("%s: equivalent spellings got distinct keys — a recompile the cache should have absorbed", name)
		}
	}
}

// TestCacheEvictionChurn exercises the LRU under a rolling key set much
// larger than the cap; entries must stay bounded by the capacity.
func TestCacheEvictionChurn(t *testing.T) {
	c := NewPlanCache(3)
	var compiles atomic.Int64
	for i := 0; i < 20; i++ {
		if _, _, err := c.Get(fmt.Sprintf("key-%d", i%7), compileWater(&compiles)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries > 3 {
		t.Fatalf("entries = %d, want <= cap 3", st.Entries)
	}
	if st.Hits+st.Misses != 20 {
		t.Fatalf("hits+misses = %d, want 20", st.Hits+st.Misses)
	}
}
