package sim

import (
	"fmt"
	"math"
)

// PS is a processor-sharing resource: a capacity of work units per second
// divided evenly among all active flows. It models saturating shared
// hardware — a node's memory bandwidth shared by concurrently executing
// memory-bound tasks, or a NIC's injection bandwidth shared by concurrent
// transfers. With one flow active a transfer of B units takes B/capacity
// seconds; with n flows it proceeds at capacity/n until membership changes.
type PS struct {
	eng      *Engine
	name     string
	capacity float64 // units per virtual second
	// perFlowCap bounds the rate any single flow can draw (0 = no bound):
	// a resource whose aggregate capacity exceeds what one client can
	// consume, e.g. node GEMM throughput above one core's peak.
	perFlowCap float64
	// contention, when > 0, selects the co-running contention model; see
	// SetContention.
	contention float64
	flows      []psFlow
	last       Time
	// done is the completion event of the flow that finishes first,
	// scheduled while any flow is active; fn is bound once, in NewPS.
	done Event

	busy Time // virtual time with at least one flow active
}

type psFlow struct {
	remaining float64
	ev        *Event // the waiter's event, scheduled when the flow completes
}

// NewPS returns a processor-sharing resource with the given capacity in
// units per second (> 0).
func NewPS(e *Engine, name string, capacity float64) *PS {
	if !(capacity > 0) {
		panic(fmt.Sprintf("sim: NewPS(%q) capacity %v", name, capacity))
	}
	ps := &PS{eng: e, name: name, capacity: capacity, last: e.Now()}
	ps.done.fn = ps.complete
	return ps
}

// Capacity returns the configured capacity in units per second.
func (ps *PS) Capacity() float64 { return ps.capacity }

// SetPerFlowCap bounds the service rate of each individual flow. It must
// be called before any flow is active.
func (ps *PS) SetPerFlowCap(rate float64) {
	if len(ps.flows) > 0 {
		panic("sim: SetPerFlowCap with active flows")
	}
	ps.perFlowCap = rate
}

// SetContention switches the resource to the empirical co-running
// contention model: with n active flows each flow is served at
// perFlowCap / (1 + beta*(n-1)) instead of an equal share of a fixed
// aggregate. beta = 0 restores independent flows at perFlowCap;
// beta = 1 approaches a fixed aggregate of perFlowCap. Aggregate
// throughput n*r/(1+beta*(n-1)) grows concavely with n — the measured
// shape of multicore kernel scaling under shared-cache and bandwidth
// pressure. Must be called before any flow is active, after
// SetPerFlowCap.
func (ps *PS) SetContention(beta float64) {
	if len(ps.flows) > 0 {
		panic("sim: SetContention with active flows")
	}
	if ps.perFlowCap <= 0 {
		panic("sim: SetContention requires SetPerFlowCap")
	}
	ps.contention = beta
}

// rate returns the current per-flow service rate.
func (ps *PS) rate() float64 {
	n := float64(len(ps.flows))
	if ps.contention > 0 {
		return ps.perFlowCap / (1 + ps.contention*(n-1))
	}
	r := ps.capacity / n
	if ps.perFlowCap > 0 && r > ps.perFlowCap {
		r = ps.perFlowCap
	}
	return r
}

// BusyTime returns the cumulative virtual time during which at least one
// flow was active (diagnostics; used for utilization reports).
func (ps *PS) BusyTime() Time { return ps.busy }

// Start begins a flow of amount units, sharing capacity with all
// concurrently active flows, and reports whether the caller must wait:
// ev fires when the flow completes. An amount <= 0 (or NaN) needs no
// service, so Start schedules nothing, reports false, and the caller
// carries on inline.
func (ps *PS) Start(ev *Event, amount float64) bool {
	if amount <= 0 || math.IsNaN(amount) {
		return false
	}
	ps.advance()
	ps.flows = append(ps.flows, psFlow{remaining: amount, ev: ev})
	ps.reschedule()
	return true
}

// advance applies work done since the last update to all active flows.
func (ps *PS) advance() {
	now := ps.eng.Now()
	if now <= ps.last {
		return
	}
	elapsed := now - ps.last
	ps.last = now
	if len(ps.flows) == 0 {
		return
	}
	ps.busy += elapsed
	perFlow := elapsed.Seconds() * ps.rate()
	for i := range ps.flows {
		ps.flows[i].remaining -= perFlow
	}
}

// tolerance is the amount of residual work (in units) considered complete:
// two nanoseconds' worth of full-rate service, absorbing event-time
// rounding without ever letting a flow strand.
func (ps *PS) tolerance() float64 { return 2e-9 * ps.capacity }

// reschedule re-keys the completion event, in place when it is pending,
// for the flow with the least remaining work, or takes it out of the
// queue when no flow is active.
func (ps *PS) reschedule() {
	if len(ps.flows) == 0 {
		ps.eng.unschedule(&ps.done)
		return
	}
	minRem := math.Inf(1)
	for _, f := range ps.flows {
		if f.remaining < minRem {
			minRem = f.remaining
		}
	}
	dt := Duration(minRem / ps.rate())
	if dt < Nanosecond {
		dt = Nanosecond
	}
	ps.eng.reschedule(&ps.done, ps.eng.now+dt)
}

// complete finishes all flows whose remaining work is within tolerance,
// scheduling their waiters' events, then reschedules.
func (ps *PS) complete() {
	ps.advance()
	tol := ps.tolerance()
	kept := ps.flows[:0]
	for _, f := range ps.flows {
		if f.remaining <= tol {
			ps.eng.wake(f.ev)
		} else {
			kept = append(kept, f)
		}
	}
	clear(ps.flows[len(kept):])
	ps.flows = kept
	ps.reschedule()
}
