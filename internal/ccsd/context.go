package ccsd

import (
	"sync"

	"parsec/internal/ga"
	"parsec/internal/runtime"
	"parsec/internal/tce"
	"parsec/internal/tensor"
)

// execCtx is what an Execute runs on, kept from one run for the next
// instead of being allocated per job (DESIGN.md §16):
//
//   - a runtime.Runner: the tracker's instance and payload slabs,
//     re-initialised in place from the plan's skeleton, and the executor
//     with its per-worker scratch shards and span buffers;
//   - a Global Arrays store holding the plan's lazy inputs and counted
//     output, reset in place after every run, with up to 2 MB of the
//     tiles of its last run on the lazy arrays' free list;
//   - a task graph bound to that store, built once per plan shape: a run
//     of another plan of the same shape points its closures at that
//     plan (builder.point) and binds that plan's skeleton, and only a
//     new shape builds a new graph.
//
// A context is not tied to a plan. A run of another plan replaces the
// store's arrays; the runner's slabs, which grow to the largest plan the
// context has run, the graph when the shape is the same, and the tiles
// of any shape the new plan shares carry over.
type execCtx struct {
	plan  *CompiledPlan // the plan b points at
	b     *builder
	store *ga.Store
	// fold is the running run's energy; put, bound once, is the output
	// array's completion callback and feeds it.
	fold *tce.EnergyFold
	put  func(tensor.BlockKey, *tensor.Tile4)
	run  runtime.Runner
}

// contexts is the process's free list of execution contexts. A run
// takes one at its start and gives it back at its end, so the list
// never holds more contexts than there were runs at once — the
// service's MaxConcurrent, one per concurrent Execute caller — and
// never one per plan: what a context keeps is bounded by the largest
// plan it ran, and the list by concurrency.
var contexts struct {
	mu   sync.Mutex
	free []*execCtx
}

// takeContext returns a free context — the most recently given back
// whose last plan was p, else the most recently given back — or a new
// one when none is free.
func takeContext(p *CompiledPlan) *execCtx {
	contexts.mu.Lock()
	defer contexts.mu.Unlock()
	free := contexts.free
	if len(free) == 0 {
		c := &execCtx{store: ga.NewStore(1)}
		c.put = func(key tensor.BlockKey, t *tensor.Tile4) { c.fold.Put(key, t) }
		return c
	}
	k := len(free) - 1
	for i := k; i >= 0; i-- {
		if free[i].plan == p {
			k = i
			break
		}
	}
	c := free[k]
	copy(free[k:], free[k+1:])
	free[len(free)-1] = nil
	contexts.free = free[:len(free)-1]
	return c
}

// giveContext puts c, reset by its last run, back on the free list.
func giveContext(c *execCtx) {
	contexts.mu.Lock()
	contexts.free = append(contexts.free, c)
	contexts.mu.Unlock()
}

// execute runs p once on c — take, run, reset in place; the caller gives
// c back — and returns the result. c is reset whatever the outcome, so
// a failed or canceled run leaves nothing for the next.
func (c *execCtx) execute(p *CompiledPlan, cfg ExecConfig, record bool) (RealResult, error) {
	if c.plan != p {
		c.store.Clear()
		addInputs(c.store, p.Workload)
		c.store.CreateCounted(tce.TensorC, p.outCounts, c.put)
		if c.b == nil || c.b.shape != p.Shape {
			c.b = p.build(c.store)
		} else {
			c.b.point(p)
			c.b.g.Name = p.graphName()
		}
		p.bindSkeleton(c.b.g)
		c.plan = p
	}
	c.b.armSorts()
	c.fold = p.Workload.NewEnergyFold()
	defer func() {
		c.store.Reset()
		c.fold = nil
	}()
	rep, err := p.run(&c.run, c.b.g, cfg, record)
	if err != nil {
		return RealResult{}, err
	}
	energy, err := c.fold.Energy()
	if err != nil {
		return RealResult{}, err
	}
	return RealResult{Energy: energy, Report: rep}, nil
}
