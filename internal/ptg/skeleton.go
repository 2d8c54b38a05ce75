package ptg

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"
)

// maxFlows is the widest task class a skeleton can describe: per-flow
// state is a bit in a uint32 mask.
const maxFlows = 32

// Skeleton is the structure of an instantiated graph, resolved once and
// shared read-only by every Tracker built from it: the inspection phase
// of §III applied to the task graph itself. Per instance, in creation
// (Instance.Seq) order, it holds args, node, priority and the mask of
// task-sourced flows; every task-to-task edge that fires is stored in
// CSR form in the order Complete reports them (flow order, then Outs
// order).
//
// Per class it holds a lookup index from args to ordinal (see
// skelClass). Not stored: TaskRefs (rebuilt per tracker from class name
// + args), terminal DataRefs (no executor reads them, as inputs or as
// outputs: bodies and behaviors address Global Arrays themselves), and
// per-edge byte sizes (only the simulator and the socket runtime ask;
// Complete evaluates FlowBytes/InBytes for them). A skeleton lives as
// long as the plan that owns it, so its size is pinned by test at <= 64
// bytes per instance.
type Skeleton struct {
	classes []skelClass
	inst    []skelInst
	edges   []skelEdge

	// news places the InNew payloads: boxed once here, shared by every
	// tracker (a NewBuffer is immutable), deduplicated by size.
	news    []newSlot
	newVals []any

	// ready lists the instances with no task-sourced input — the tasks
	// ready before anything completes — in the order a priority queue
	// serves them: priority descending, then creation order (the
	// scheduling core's Before). Which tasks start ready, and in what
	// order they pop, is a property of the plan, so an executor adopts
	// this run instead of heaping it again every execution.
	ready []int32

	nslots int // sum over instances of their class's flow count
}

// skelClass is one class's slice of inst. Instances of a class are
// contiguous in creation order, so neither the class of an instance nor
// its offset into the payload slab needs a per-instance entry.
type skelClass struct {
	name    string
	flows   []string // flow names in definition order (the layout check)
	base, n int32
	// lo and ext are the box the class's args span: param k runs over
	// lo[k] .. lo[k]+ext[k]-1.
	lo  [MaxParams]int32
	ext [MaxParams]int
	// dense maps a position in the box (row-major over the params) to 1 +
	// the ordinal of the instance with those args, 0 for a hole. It is
	// built when the box holds at most denseSlack slots per instance,
	// which is every CCSD class; a sparser class is binary-searched.
	dense []int32
	// sorted lists a sparse class's instances in ascending args order; nil
	// when the domain already emits them in that order, where base+k is
	// the k-th.
	sorted []int32
}

// denseSlack is how many box slots per instance a dense lookup index may
// spend before a class falls back to binary search.
const denseSlack = 4

type skelInst struct {
	args     [MaxParams]int32
	node     int32
	prio     int64
	fromTask uint32 // bit fi set: flow fi is supplied by another task
	edgeEnd  int32  // out-edges are edges[previous instance's edgeEnd:edgeEnd]
}

type skelEdge struct {
	to               int32
	fromFlow, toFlow uint8
}

type newSlot struct {
	slot int32 // index into a tracker's payload slab
	val  int32 // index into newVals
}

// NewSkeleton validates the graph, enumerates every instance, resolves
// each instance's input alternatives and every output edge, and returns
// the compact result. Everything a malformed graph can get wrong about
// structure is reported here, before any task runs: a class wider than
// 32 flows, args or nodes that do not fit int32, and edges that target a
// nonexistent task or flow. A domain that emits the same args twice
// panics, as a duplicate class or flow does.
//
// The build is one pass per phase at exact size: the domains are counted
// first, so the instance array is allocated once, and the edge array is
// sized by the task-sourced inputs the instances declare — exact for a
// graph in which every such input has one producer, as for any graph
// that runs.
func NewSkeleton(g *Graph) (*Skeleton, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	s := &Skeleton{classes: make([]skelClass, len(g.order))}
	total := 0
	for _, tc := range g.order {
		if len(tc.Flows) > maxFlows {
			return nil, fmt.Errorf("ptg: class %s has %d flows, limit %d", tc.Name, len(tc.Flows), maxFlows)
		}
		tc.Domain(func(Args) { total++ })
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("ptg: graph %s is too large: %d instances", g.Name, total)
	}
	s.inst = make([]skelInst, 0, total)
	newIdx := make(map[int64]int32)
	nready, nedges := 0, 0
	for ci, tc := range g.order {
		sc := &s.classes[ci]
		sc.name, sc.base = tc.Name, int32(len(s.inst))
		sc.flows = make([]string, len(tc.Flows))
		for fi, f := range tc.Flows {
			sc.flows[fi] = f.Name
		}
		inOrder := true
		var err error
		tc.Domain(func(a Args) {
			in := skelInst{}
			node, fits := 0, true
			if tc.Affinity != nil {
				node = tc.Affinity(a)
			}
			if in.args, fits = narrow(a); !fits || int(int32(node)) != node {
				err = fmt.Errorf("ptg: %v on node %d does not fit int32", TaskRef{tc.Name, a}, node)
			}
			in.node = int32(node)
			if tc.Priority != nil {
				in.prio = tc.Priority(a)
			}
			for fi, f := range tc.Flows {
				switch dep, ok := matchIn(f, a); {
				case !ok: // inactive flow
				case dep.Producer != nil:
					in.fromTask |= 1 << fi
				case dep.New != nil:
					size := dep.New(a)
					vi, seen := newIdx[size]
					if !seen {
						vi = int32(len(s.newVals))
						newIdx[size] = vi
						s.newVals = append(s.newVals, NewBuffer{Bytes: size})
					}
					s.news = append(s.news, newSlot{slot: int32(s.nslots + fi), val: vi})
				}
			}
			if in.fromTask == 0 {
				nready++
			}
			nedges += bits.OnesCount32(in.fromTask)
			if n := len(s.inst); n > int(sc.base) && !argsLess(s.inst[n-1].args, in.args) {
				inOrder = false
			}
			s.nslots += len(tc.Flows)
			s.inst = append(s.inst, in)
		})
		if len(s.inst) > math.MaxInt32 || s.nslots > math.MaxInt32 {
			err = fmt.Errorf("ptg: graph %s is too large: %d instances, %d flow slots", g.Name, len(s.inst), s.nslots)
		}
		if err != nil {
			return nil, err
		}
		sc.n = int32(len(s.inst)) - sc.base
		s.index(sc, inOrder)
	}
	s.edges = make([]skelEdge, 0, nedges)
	if err := s.resolveEdges(g); err != nil {
		return nil, err
	}
	s.ready = make([]int32, 0, nready)
	for i := range s.inst {
		if s.inst[i].fromTask == 0 {
			s.ready = append(s.ready, int32(i))
		}
	}
	s.sortReady()
	return s, nil
}

// sortReady orders the ready run by priority descending, then ordinal
// ascending. Ordinals are distinct, so the order is total and an
// unstable sort gives what a stable sort by priority alone would. When
// every priority fits 32 bits — all CCSD graphs — the two keys pack
// into one uint64 and the sort compares integers instead of chasing
// each ordinal into inst.
func (s *Skeleton) sortReady() {
	keys := make([]uint64, len(s.ready))
	for k, i := range s.ready {
		p := s.inst[i].prio
		if p < math.MinInt32 || p > math.MaxInt32 {
			slices.SortFunc(s.ready, func(i, j int32) int {
				if c := cmp.Compare(s.inst[j].prio, s.inst[i].prio); c != 0 {
					return c
				}
				return cmp.Compare(i, j)
			})
			return
		}
		keys[k] = uint64(math.MaxInt32-p)<<32 | uint64(i)
	}
	slices.Sort(keys)
	for k, key := range keys {
		s.ready[k] = int32(uint32(key))
	}
}

// index builds the lookup index of a class just enumerated and rejects
// a duplicate emission: a dense table over the args box when the box is
// at most denseSlack times the instance count, else — only for a domain
// that does not emit in ascending args order — a sorted ordinal list.
func (s *Skeleton) index(sc *skelClass, inOrder bool) {
	if sc.n == 0 {
		return
	}
	inst := s.inst[sc.base : sc.base+sc.n]
	lo, hi := inst[0].args, inst[0].args
	for i := range inst {
		for k, v := range inst[i].args {
			lo[k], hi[k] = min(lo[k], v), max(hi[k], v)
		}
	}
	box, limit := 1, denseSlack*len(inst)
	for k := range lo {
		sc.ext[k] = int(hi[k]) - int(lo[k]) + 1
		if box > limit/sc.ext[k] {
			box = limit + 1
			break
		}
		box *= sc.ext[k]
	}
	sc.lo = lo
	if box > limit {
		if !inOrder {
			s.sortClass(sc)
		}
		return
	}
	sc.dense = make([]int32, box)
	for i := range inst {
		p := sc.pos(widen(inst[i].args))
		if sc.dense[p] != 0 {
			panic(fmt.Sprintf("ptg: domain of %s emits %v twice", sc.name, widen(inst[i].args)))
		}
		sc.dense[p] = sc.base + int32(i) + 1
	}
}

// pos returns the dense-table position of args inside the class's box,
// or -1 when they lie outside it.
func (sc *skelClass) pos(a Args) int {
	p := 0
	for k, v := range a {
		d := v - int(sc.lo[k])
		if uint(d) >= uint(sc.ext[k]) {
			return -1
		}
		p = p*sc.ext[k] + d
	}
	return p
}

// sortClass builds the lookup index of a sparse class whose domain does
// not emit in ascending args order, and rejects duplicate emissions.
func (s *Skeleton) sortClass(sc *skelClass) {
	sc.sorted = make([]int32, sc.n)
	for k := range sc.sorted {
		sc.sorted[k] = sc.base + int32(k)
	}
	slices.SortFunc(sc.sorted, func(i, j int32) int { return slices.Compare(s.inst[i].args[:], s.inst[j].args[:]) })
	for k := 1; k < len(sc.sorted); k++ {
		if a := s.inst[sc.sorted[k]].args; a == s.inst[sc.sorted[k-1]].args {
			panic(fmt.Sprintf("ptg: domain of %s emits %v twice", sc.name, widen(a)))
		}
	}
}

// edgeTarget caches what one output dependency resolved to last: consumers
// along a chain name the same class and flow instance after instance,
// so a repeat costs two string compares instead of two map lookups.
type edgeTarget struct {
	class, flow string
	tc          *TaskClass
	fi          int
}

// resolveEdges evaluates every out-guard and consumer closure once and
// records the edges that fire.
func (s *Skeleton) resolveEdges(g *Graph) error {
	var targets []edgeTarget
	for ci, tc := range g.order {
		sc := &s.classes[ci]
		targets = targets[:0]
		for _, f := range tc.Flows {
			for range f.Outs {
				targets = append(targets, edgeTarget{fi: -1})
			}
		}
		for i := sc.base; i < sc.base+sc.n; i++ {
			a := widen(s.inst[i].args)
			k := 0
			for fi, f := range tc.Flows {
				for _, out := range f.Outs {
					t := &targets[k]
					k++
					if out.Data != nil || (out.Guard != nil && !out.Guard(a)) {
						continue
					}
					toRef, toFlowName := out.Consumer(a)
					if t.tc == nil || toRef.Class != t.class {
						t.class, t.tc, t.fi = toRef.Class, g.classes[toRef.Class], -1
					}
					to := int32(-1)
					if t.tc != nil {
						to = s.lookup(t.tc.idx, toRef.Args)
					}
					if to < 0 {
						return fmt.Errorf("ptg: %v flow %s targets nonexistent task %v", TaskRef{tc.Name, a}, f.Name, toRef)
					}
					if t.fi < 0 || toFlowName != t.flow {
						toFlow, ok := t.tc.FlowIndex(toFlowName)
						if !ok {
							return fmt.Errorf("ptg: %v flow %s targets nonexistent flow %s.%s", TaskRef{tc.Name, a}, f.Name, toRef.Class, toFlowName)
						}
						t.flow, t.fi = toFlowName, toFlow
					}
					s.edges = append(s.edges, skelEdge{to: to, fromFlow: uint8(fi), toFlow: uint8(t.fi)})
				}
			}
			if len(s.edges) > math.MaxInt32 {
				return fmt.Errorf("ptg: graph %s is too large: over %d edges", g.Name, math.MaxInt32)
			}
			s.inst[i].edgeEnd = int32(len(s.edges))
		}
	}
	return nil
}

// edgesOf returns instance i's out-edges in delivery order.
func (s *Skeleton) edgesOf(i int) []skelEdge {
	start := int32(0)
	if i > 0 {
		start = s.inst[i-1].edgeEnd
	}
	return s.edges[start:s.inst[i].edgeEnd]
}

// lookup returns the creation ordinal of the instance of class ci with
// the given args, or -1.
func (s *Skeleton) lookup(ci int, a Args) int32 {
	sc := &s.classes[ci]
	if sc.dense != nil {
		if p := sc.pos(a); p >= 0 {
			return sc.dense[p] - 1
		}
		return -1
	}
	a32, fits := narrow(a)
	if !fits {
		return -1
	}
	at := func(k int) int32 {
		if sc.sorted != nil {
			return sc.sorted[k]
		}
		return sc.base + int32(k)
	}
	lo, hi := 0, int(sc.n)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if argsLess(s.inst[at(m)].args, a32) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < int(sc.n) && s.inst[at(lo)].args == a32 {
		return at(lo)
	}
	return -1
}

// argsLess orders args lexicographically.
func argsLess(a, b [MaxParams]int32) bool {
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

// matches refuses a graph whose class or flow layout differs from the
// one the skeleton was built from. It cannot see inside domains and
// guards: binding is for graphs that are the same by construction (one
// plan bound to different stores), and the check catches a skeleton
// attached to the wrong plan before it drives a wrong run.
func (s *Skeleton) matches(g *Graph) error {
	if len(g.order) != len(s.classes) {
		return fmt.Errorf("ptg: graph %s has %d classes, bound skeleton has %d", g.Name, len(g.order), len(s.classes))
	}
	for ci, tc := range g.order {
		sc := &s.classes[ci]
		if tc.Name != sc.name || !slices.EqualFunc(tc.Flows, sc.flows, func(f *Flow, name string) bool { return f.Name == name }) {
			return fmt.Errorf("ptg: graph %s class %d (%s) does not match bound skeleton class %s%v",
				g.Name, ci, tc.Name, sc.name, sc.flows)
		}
	}
	return nil
}

// NumInstances returns the number of task instances described.
func (s *Skeleton) NumInstances() int { return len(s.inst) }

// ClassNames returns the class names in definition order: the index
// space of ClassOf. A nil skeleton has none.
func (s *Skeleton) ClassNames() []string {
	if s == nil {
		return nil
	}
	names := make([]string, len(s.classes))
	for ci := range s.classes {
		names[ci] = s.classes[ci].name
	}
	return names
}

// ClassOf returns the definition-order index of the class instance seq
// belongs to, or -1 when the skeleton (a nil one included) describes no
// such instance. Seq is all an executor's recorded span keeps of a
// task; this and Ref are how a reader gets the rest back.
func (s *Skeleton) ClassOf(seq int) int {
	if s == nil || seq < 0 || seq >= len(s.inst) {
		return -1
	}
	// Classes are contiguous in creation order, and there are a handful.
	for ci := len(s.classes) - 1; ci > 0; ci-- {
		if int(s.classes[ci].base) <= seq {
			return ci
		}
	}
	return 0
}

// Ref rebuilds the reference of instance seq — class name plus args, as
// a tracker's Instance.Ref carries it — and reports whether there is
// such an instance.
func (s *Skeleton) Ref(seq int) (TaskRef, bool) {
	ci := s.ClassOf(seq)
	if ci < 0 {
		return TaskRef{}, false
	}
	return TaskRef{Class: s.classes[ci].name, Args: widen(s.inst[seq].args)}, true
}

// Bytes returns the heap footprint of the skeleton's arrays: what a
// cached plan keeps resident for it.
func (s *Skeleton) Bytes() int {
	n := len(s.inst)*int(unsafe.Sizeof(skelInst{})) + len(s.edges)*int(unsafe.Sizeof(skelEdge{})) +
		len(s.news)*int(unsafe.Sizeof(newSlot{})) + len(s.newVals)*(16+8) + // interface word pair + boxed int64
		len(s.ready)*4
	for i := range s.classes {
		n += (len(s.classes[i].dense) + len(s.classes[i].sorted)) * 4
	}
	return n
}

func narrow(a Args) (out [MaxParams]int32, fits bool) {
	fits = true
	for k, v := range a {
		out[k] = int32(v)
		fits = fits && int(out[k]) == v
	}
	return out, fits
}

func widen(a [MaxParams]int32) Args {
	var out Args
	for k, v := range a {
		out[k] = int(v)
	}
	return out
}
