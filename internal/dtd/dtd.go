// Package dtd implements a Dynamic Task Discovery frontend: the
// programming model the paper's related work section (§VI) contrasts with
// the PTG. A skeleton program inserts tasks one by one, declaring how each
// accesses named data; the engine discovers dependencies by matching those
// accesses (last-writer and anti-dependencies) and materializes the whole
// DAG in memory before and during execution.
//
// This is the model of StarPU, QUARK, OmpSs and OpenMP tasks. It exists
// here for the comparison the paper draws: "they largely rely on some form
// of Dynamic Task Discovery, or in other words building the entire DAG of
// execution in memory using skeleton programs", whereas the PTG's
// inspector "does not build a DAG in memory and does not need to discover
// the way tasks depend on one another by matching input and output data"
// (§VI). The benchmark BenchmarkPTGvsDTD quantifies the difference.
//
// The contrast is about how the DAG is discovered, not about who runs
// it: as in PaRSEC, where inserted tasks share the PTG's scheduler, Run
// hands the discovered DAG to the one worker loop, runtime.Executor.
package dtd

import (
	"fmt"
	"sync"

	"parsec/internal/ptg"
	"parsec/internal/runtime"
)

// Mode is how a task accesses one datum.
type Mode int

// The access modes: read-only, write-only, and read-modify-write.
const (
	ModeRead Mode = iota
	ModeWrite
	ModeRW
)

// String renders the mode as R, W, or RW.
func (m Mode) String() string {
	return [...]string{"R", "W", "RW"}[m]
}

// Access declares one data access of an inserted task.
type Access struct {
	Key  string
	Mode Mode
}

// Read declares a read access.
func Read(key string) Access { return Access{Key: key, Mode: ModeRead} }

// Write declares a write access (previous value not needed).
func Write(key string) Access { return Access{Key: key, Mode: ModeWrite} }

// ReadWrite declares an update access.
func ReadWrite(key string) Access { return Access{Key: key, Mode: ModeRW} }

// Ctx is passed to task bodies: Data maps each declared key to its
// current value; bodies replace values for written keys via Set.
type Ctx struct {
	ID   int
	Name string
	eng  *Engine
	keys []Access
}

// Get returns the current value of a declared datum.
func (c *Ctx) Get(key string) any {
	c.declared(key)
	c.eng.mu.Lock()
	defer c.eng.mu.Unlock()
	return c.eng.values[key]
}

// Set stores a new value for a declared written datum.
func (c *Ctx) Set(key string, v any) {
	if c.declared(key) == ModeRead {
		panic(fmt.Sprintf("dtd: task %s writes %q declared read-only", c.Name, key))
	}
	c.eng.mu.Lock()
	c.eng.values[key] = v
	c.eng.mu.Unlock()
}

// declared returns the mode the task declared for key; touching an
// undeclared datum panics, which fails the run.
func (c *Ctx) declared(key string) Mode {
	for _, a := range c.keys {
		if a.Key == key {
			return a.Mode
		}
	}
	panic(fmt.Sprintf("dtd: task %s touches undeclared datum %q", c.Name, key))
}

// task is one DAG node, materialized in memory (the defining property of
// the model).
type task struct {
	id       int
	name     string
	body     func(*Ctx)
	priority int64
	accesses []Access

	succs   []*task
	pending int
}

// lastAccess tracks the dependency frontier of one datum.
type lastAccess struct {
	writer  *task
	readers []*task
}

// Engine is a DTD engine: insert tasks, then Run.
type Engine struct {
	mu       sync.Mutex
	tasks    []*task
	frontier map[string]*lastAccess
	values   map[string]any
	edges    int
	sealed   bool
}

// New returns an empty engine.
func New() *Engine {
	return &Engine{
		frontier: make(map[string]*lastAccess),
		values:   make(map[string]any),
	}
}

// Put seeds an initial value for a datum before any task touches it.
func (e *Engine) Put(key string, v any) { e.values[key] = v }

// Value returns the final value of a datum after Run.
func (e *Engine) Value(key string) any { return e.values[key] }

// NumTasks returns the number of inserted tasks.
func (e *Engine) NumTasks() int { return len(e.tasks) }

// NumEdges returns the number of discovered dependency edges — the memory
// the DTD model pays that the PTG avoids.
func (e *Engine) NumEdges() int { return e.edges }

// Insert adds a task with the given accesses. Dependencies on previously
// inserted tasks are discovered immediately by access matching:
//
//   - a reader depends on the datum's last writer;
//   - a writer depends on the last writer and on every reader inserted
//     since (anti-dependencies), serializing conflicting updates.
//
// Insertion order is the program order of the skeleton.
func (e *Engine) Insert(name string, priority int64, body func(*Ctx), accesses ...Access) int {
	if e.sealed {
		panic("dtd: Insert after Run")
	}
	t := &task{
		id:       len(e.tasks),
		name:     name,
		body:     body,
		priority: priority,
		accesses: accesses,
	}
	addDep := func(from *task) {
		if from == nil || from == t {
			return
		}
		from.succs = append(from.succs, t)
		t.pending++
		e.edges++
	}
	for _, a := range accesses {
		la := e.frontier[a.Key]
		if la == nil {
			la = &lastAccess{}
			e.frontier[a.Key] = la
		}
		switch a.Mode {
		case ModeRead:
			addDep(la.writer)
			la.readers = append(la.readers, t)
		case ModeWrite, ModeRW:
			if a.Mode == ModeRW {
				addDep(la.writer)
			}
			for _, r := range la.readers {
				addDep(r)
			}
			if a.Mode == ModeWrite && len(la.readers) == 0 {
				addDep(la.writer)
			}
			la.writer = t
			la.readers = nil
		}
	}
	e.tasks = append(e.tasks, t)
	return t.id
}

// Run executes the DAG on the given number of workers (0 = GOMAXPROCS)
// and returns the first body failure, which names the inserted task.
// The engine may not be reused afterwards.
//
// The engine is an embedder of runtime.Executor, like runtime.Run and a
// netrun rank: every inserted task becomes one ptg.Instance of a single
// class whose body dispatches on the insertion id, and the Complete hook
// walks the discovered DAG instead of a ptg.Tracker. Edges only point
// from a lower insertion id to a higher one, so the DAG cannot deadlock
// and the last completion ends the run.
func (e *Engine) Run(workers int) error {
	if e.sealed {
		return fmt.Errorf("dtd: Run called twice")
	}
	e.sealed = true
	remaining := len(e.tasks)
	if remaining == 0 {
		return nil
	}
	class := &ptg.TaskClass{Name: "dtd", Body: func(ctx *ptg.Ctx) {
		if t := e.tasks[ctx.Seq]; t.body != nil {
			t.body(&Ctx{ID: t.id, Name: t.name, eng: e, keys: t.accesses})
		}
	}}
	insts := make([]ptg.Instance, len(e.tasks))
	var x *runtime.Executor
	x = runtime.NewExecutor(runtime.Config{Workers: workers}, runtime.Hooks{
		Start: func(*ptg.Instance) error { return nil },
		Complete: func(in *ptg.Instance, _ []any, scr *runtime.Scratch) error {
			e.mu.Lock()
			defer e.mu.Unlock()
			for _, s := range e.tasks[in.Seq].succs {
				if s.pending--; s.pending == 0 {
					scr.Ready = append(scr.Ready, &insts[s.id])
				}
			}
			if remaining--; remaining == 0 {
				x.Halt()
			}
			return nil
		},
	})
	for i, t := range e.tasks {
		// The executor's panic report prints Ref, so the class slot carries
		// the inserted task's name.
		insts[i] = ptg.Instance{Ref: ptg.TaskRef{Class: t.name, Args: ptg.Args{i}}, Class: class, Priority: t.priority, Seq: i}
		if t.pending == 0 {
			x.Push(&insts[i])
		}
	}
	return x.Run()
}
