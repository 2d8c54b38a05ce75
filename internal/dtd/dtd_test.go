package dtd

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestChainSerializedByRW(t *testing.T) {
	e := New()
	e.Put("c", 0)
	const n = 20
	for i := 0; i < n; i++ {
		i := i
		e.Insert(fmt.Sprintf("step%d", i), 0, func(ctx *Ctx) {
			v := ctx.Get("c").(int)
			if v != i {
				t.Errorf("step %d saw %d", i, v)
			}
			ctx.Set("c", v+1)
		}, ReadWrite("c"))
	}
	if err := e.Run(8); err != nil {
		t.Fatal(err)
	}
	if got := e.Value("c").(int); got != n {
		t.Errorf("final = %d, want %d", got, n)
	}
	// A pure RW chain has exactly n-1 edges.
	if e.NumEdges() != n-1 {
		t.Errorf("edges = %d, want %d", e.NumEdges(), n-1)
	}
}

func TestReadersShareThenWriterWaits(t *testing.T) {
	e := New()
	e.Put("d", 1)
	var mu sync.Mutex
	var order []string
	rec := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	e.Insert("w0", 0, func(ctx *Ctx) { rec("w0"); ctx.Set("d", 2) }, ReadWrite("d"))
	for i := 0; i < 3; i++ {
		i := i
		e.Insert(fmt.Sprintf("r%d", i), 0, func(ctx *Ctx) {
			if ctx.Get("d").(int) != 2 {
				t.Error("reader saw stale value")
			}
			rec(fmt.Sprintf("r%d", i))
		}, Read("d"))
	}
	e.Insert("w1", 0, func(ctx *Ctx) {
		rec("w1")
		ctx.Set("d", 3)
	}, ReadWrite("d"))
	if err := e.Run(4); err != nil {
		t.Fatal(err)
	}
	if order[0] != "w0" || order[len(order)-1] != "w1" {
		t.Errorf("order = %v", order)
	}
	if e.Value("d").(int) != 3 {
		t.Error("final value wrong")
	}
}

func TestWriteAfterWriteOrdered(t *testing.T) {
	e := New()
	e.Insert("a", 0, func(ctx *Ctx) { ctx.Set("x", "a") }, Write("x"))
	e.Insert("b", 0, func(ctx *Ctx) { ctx.Set("x", "b") }, Write("x"))
	if err := e.Run(4); err != nil {
		t.Fatal(err)
	}
	if e.Value("x") != "b" {
		t.Errorf("WAW not ordered: final = %v", e.Value("x"))
	}
}

func TestIndependentTasksParallel(t *testing.T) {
	e := New()
	var count int
	var mu sync.Mutex
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		e.Insert("t", 0, func(ctx *Ctx) {
			mu.Lock()
			count++
			mu.Unlock()
		}, Write(key))
	}
	if e.NumEdges() != 0 {
		t.Errorf("independent tasks have %d edges", e.NumEdges())
	}
	if err := e.Run(8); err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Errorf("count = %d", count)
	}
}

func TestPriorityOrderSingleWorker(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Insert("t", int64(i), func(ctx *Ctx) { order = append(order, i) }, Write(fmt.Sprintf("k%d", i)))
	}
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(order); i++ {
		if order[i] > order[i-1] {
			t.Fatalf("priority order violated: %v", order)
		}
	}
}

func TestUndeclaredAccessPanicsIntoError(t *testing.T) {
	e := New()
	e.Insert("bad", 0, func(ctx *Ctx) { ctx.Get("nope") }, Write("x"))
	if err := e.Run(1); err == nil {
		t.Error("undeclared access not surfaced")
	}
	e2 := New()
	e2.Insert("bad", 0, func(ctx *Ctx) { ctx.Set("r", 1) }, Read("r"))
	if err := e2.Run(1); err == nil {
		t.Error("write to read-only datum not surfaced")
	}
}

// A failing body fails Run with an error naming the inserted task, also
// when the panic is the body's own.
func TestBodyFailureNamesInsertedTask(t *testing.T) {
	for name, body := range map[string]func(*Ctx){
		"undeclared": func(ctx *Ctx) { ctx.Get("nope") },
		"own-panic":  func(ctx *Ctx) { panic("boom") },
	} {
		e := New()
		e.Insert("ok", 0, nil, Write("y"))
		e.Insert("GEMM(3,1)", 0, body, Write("x"))
		err := e.Run(2)
		if err == nil || !strings.Contains(err.Error(), "GEMM(3,1)") {
			t.Errorf("%s: err = %v, want one naming task GEMM(3,1)", name, err)
		}
	}
}

func TestEmptyEngineAndDefaultWorkers(t *testing.T) {
	if err := New().Run(4); err != nil {
		t.Errorf("empty engine: %v", err)
	}
	for _, workers := range []int{0, -3} {
		e := New()
		e.Put("c", 0)
		for i := 0; i < 10; i++ {
			e.Insert("inc", 0, func(ctx *Ctx) { ctx.Set("c", ctx.Get("c").(int)+1) }, ReadWrite("c"))
		}
		if err := e.Run(workers); err != nil || e.Value("c").(int) != 10 {
			t.Errorf("workers=%d: err %v, c = %v", workers, err, e.Value("c"))
		}
	}
}

// The case DESIGN.md §6 gave as the reason DTD could not be lowered onto
// ptg.Tracker: a writer that follows more than 32 readers.
func TestWriterAfterManyReaders(t *testing.T) {
	const readers = 100
	e := New()
	e.Put("d", 7)
	var finished atomic.Int64
	for i := 0; i < readers; i++ {
		e.Insert(fmt.Sprintf("r%d", i), 0, func(ctx *Ctx) {
			if ctx.Get("d").(int) != 7 {
				t.Error("reader saw the writer's value")
			}
			finished.Add(1)
		}, Read("d"))
	}
	e.Insert("w", 10, func(ctx *Ctx) {
		if n := finished.Load(); n != readers {
			t.Errorf("writer ran after %d of %d readers", n, readers)
		}
		ctx.Set("d", ctx.Get("d").(int)+1)
	}, ReadWrite("d"))
	if e.NumEdges() != readers {
		t.Errorf("edges = %d, want %d", e.NumEdges(), readers)
	}
	if err := e.Run(8); err != nil {
		t.Fatal(err)
	}
	if got := e.Value("d").(int); got != 8 {
		t.Errorf("final = %d, want 8", got)
	}
}

func TestRunTwiceFails(t *testing.T) {
	e := New()
	e.Insert("t", 0, nil, Write("x"))
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(1); err == nil {
		t.Error("second Run accepted")
	}
}

func TestInsertAfterRunPanics(t *testing.T) {
	e := New()
	e.Run(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	e.Insert("late", 0, nil, Write("x"))
}

// Property: a random interleaving of reads and RW-updates over a few data
// keys always executes with every update seeing the value left by the
// previous update of its key (sequential consistency per key).
func TestPropertySequentialPerKey(t *testing.T) {
	f := func(ops []uint8) bool {
		if len(ops) == 0 || len(ops) > 60 {
			return true
		}
		e := New()
		const keys = 3
		expect := [keys]int{}
		for k := 0; k < keys; k++ {
			e.Put(fmt.Sprintf("k%d", k), 0)
		}
		violated := false
		var mu sync.Mutex
		counts := [keys]int{}
		for _, op := range ops {
			k := int(op) % keys
			key := fmt.Sprintf("k%d", k)
			if op%2 == 0 {
				want := counts[k]
				e.Insert("upd", 0, func(ctx *Ctx) {
					v := ctx.Get(key).(int)
					mu.Lock()
					if v != want {
						violated = true
					}
					mu.Unlock()
					ctx.Set(key, v+1)
				}, ReadWrite(key))
				counts[k]++
			} else {
				want := counts[k]
				e.Insert("read", 0, func(ctx *Ctx) {
					v := ctx.Get(key).(int)
					mu.Lock()
					if v != want {
						violated = true
					}
					mu.Unlock()
				}, Read(key))
			}
			expect[k] = counts[k]
		}
		if err := e.Run(4); err != nil {
			return false
		}
		for k := 0; k < keys; k++ {
			if e.Value(fmt.Sprintf("k%d", k)).(int) != expect[k] {
				return false
			}
		}
		return !violated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
