package runtime

import (
	"sync"
	"sync/atomic"

	"parsec/internal/tensor/pool"
)

// Worker lending: the runtime-side implementation of team.Parallelism
// (DESIGN.md §13). A task body that reaches a kernel large enough to
// split calls Span on its Ctx.Par handle; the runtime publishes the
// span, wakes parked workers, and lets them volunteer for parts. The
// protocol is deadlock-free by construction:
//
//   - The spanning worker claims parts in the same loop as helpers, so a
//     span completes even if zero workers ever volunteer (all busy, all
//     lent, or a one-worker run).
//   - Helpers volunteer only when their own task search came up empty
//     (tryGet returned nil), so lending never delays ready graph tasks
//     and never oversubscribes the worker count.
//   - Parts are claimed by a single atomic counter; a helper that loses
//     every claim race simply goes back to its normal loop.
//
// Publishing a span and parking follow the same Dekker pattern as
// enqueue: the publisher bumps the active-span count before scanning for
// parked workers, and a parking worker re-checks the count after
// publishing its parked flag, so a wake is never lost between them.

// spanJob is one published intra-task parallel region.
type spanJob struct {
	f     func(part int, scratch *pool.Local)
	parts int32
	// next is the claim counter: part i belongs to whoever's Add returns
	// i. Claims past parts-1 mean the span is exhausted.
	next atomic.Int32
	// live counts claimed-but-unfinished parts plus one publication
	// token, so done closes exactly once, after the last part returns.
	live atomic.Int32
	done chan struct{}
}

// lendState tracks the spans that still have unclaimed parts.
type lendState struct {
	mu    sync.Mutex
	spans []*spanJob
	// n mirrors len(spans) for lock-free emptiness checks in the worker
	// loop and the park recheck.
	n atomic.Int64
}

// publish registers a span and wakes up to parts-1 parked workers to
// volunteer for it.
func (x *Executor) publish(sp *spanJob) {
	x.lend.mu.Lock()
	x.lend.spans = append(x.lend.spans, sp)
	x.lend.n.Add(1)
	x.lend.mu.Unlock()
	need := int(sp.parts) - 1
	for w := 0; w < len(x.ws) && need > 0; w++ {
		if x.nparked.Load() == 0 {
			return
		}
		if x.wake(w) {
			need--
		}
	}
}

// retire removes an exhausted span from the active list. Exactly one
// claimer calls it: the one whose claim returned the final part.
func (x *Executor) retire(sp *spanJob) {
	x.lend.mu.Lock()
	for i, s := range x.lend.spans {
		if s == sp {
			last := len(x.lend.spans) - 1
			x.lend.spans[i] = x.lend.spans[last]
			x.lend.spans[last] = nil
			x.lend.spans = x.lend.spans[:last]
			x.lend.n.Add(-1)
			break
		}
	}
	x.lend.mu.Unlock()
}

// runParts claims and executes parts of sp until the claim counter is
// exhausted, using the given worker's scratch shard. Returns the number
// of parts executed.
func (x *Executor) runParts(sp *spanJob, ws *workerState) int {
	ran := 0
	for {
		i := sp.next.Add(1) - 1
		if i >= sp.parts {
			return ran
		}
		if i == sp.parts-1 {
			x.retire(sp)
		}
		sp.f(int(i), ws.loc)
		ran++
		if sp.live.Add(-1) == 0 {
			close(sp.done)
		}
	}
}

// hasHelp reports whether any span has unclaimed parts, for the park
// recheck and the worker loop's cheap gate.
func (x *Executor) hasHelp() bool { return x.lend.n.Load() > 0 }

// tryHelp lets an idle worker volunteer for a published span. Returns
// true if it executed at least one part.
func (x *Executor) tryHelp(id int) bool {
	if !x.hasHelp() {
		return false
	}
	x.lend.mu.Lock()
	var sp *spanJob
	for _, s := range x.lend.spans {
		if s.next.Load() < s.parts {
			sp = s
			break
		}
	}
	x.lend.mu.Unlock()
	if sp == nil {
		return false
	}
	ws := &x.ws[id]
	ran := x.runParts(sp, ws)
	ws.helped += int64(ran)
	return ran > 0
}

// workerTeam is the team.Parallelism handle handed to task bodies: spans
// split across the run's workers via the lending protocol.
type workerTeam struct {
	x  *Executor
	id int // the worker executing the spanning task
}

// Workers returns how many workers could run parts of a span published
// now: the caller plus the workers currently parked. Only a parked
// worker volunteers (a busy one has a task), so with nobody parked the
// bound is 1 and a kernel that sizes its split by it stays whole on the
// caller — no span published, no operand packed once per part by one
// goroutine. The count is a snapshot: fewer may turn up (a parked
// worker can be woken for a task first), which Span tolerates.
func (t workerTeam) Workers() int {
	return min(1+int(t.x.nparked.Load()), len(t.x.ws))
}

// Span runs f(0..parts-1) across the spanning worker and any volunteers,
// returning when every part has finished. parts <= 1 runs inline.
func (t workerTeam) Span(parts int, f func(part int, scratch *pool.Local)) {
	x := t.x
	ws := &x.ws[t.id]
	if parts <= 1 {
		f(0, ws.loc)
		return
	}
	sp := &spanJob{f: f, parts: int32(parts), done: make(chan struct{})}
	// parts claim tokens plus the publication token released below: done
	// cannot close before the caller is finished claiming.
	sp.live.Store(int32(parts) + 1)
	x.publish(sp)
	ws.spans++
	x.runParts(sp, ws)
	if sp.live.Add(-1) != 0 {
		// Helpers still hold parts; wait without burning the CPU — they
		// are running on other workers by definition.
		<-sp.done
	}
}
