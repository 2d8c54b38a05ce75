package ptg

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// chainGraph builds the paper's Fig 1 PTG: DFILL(L1) starts a chain,
// GEMM(L1, L2) tasks pass C serially along the chain, the last GEMM
// sends C to SORT(L1). Readers supply A and B from terminal data.
func chainGraph(numChains int, chainLen func(int) int) *Graph {
	g := NewGraph("fig1-chain")

	dfill := g.Class("DFILL")
	dfill.Domain = func(emit func(Args)) {
		for l1 := 0; l1 < numChains; l1++ {
			emit(A1(l1))
		}
	}
	dfill.Priority = func(a Args) int64 { return int64(numChains - a[0]) }
	dfill.AddFlow("C", Write).
		InNew(nil, func(a Args) int64 { return 1024 }).
		Out(nil, func(a Args) (TaskRef, string) {
			return TaskRef{"GEMM", A2(a[0], 0)}, "C"
		})

	read := func(name string) *TaskClass {
		rc := g.Class(name)
		rc.Domain = func(emit func(Args)) {
			for l1 := 0; l1 < numChains; l1++ {
				for l2 := 0; l2 < chainLen(l1); l2++ {
					emit(A2(l1, l2))
				}
			}
		}
		rc.Priority = func(a Args) int64 { return int64(numChains-a[0]) + 5 }
		rc.AddFlow("D", Write).
			InData(nil, func(a Args) DataRef {
				return DataRef{ID: fmt.Sprintf("%s(%d,%d)", name, a[0], a[1]), Bytes: 512}
			}).
			Out(nil, func(a Args) (TaskRef, string) {
				return TaskRef{"GEMM", a}, name[len(name)-1:]
			})
		return rc
	}
	read("READA")
	read("READB")

	gemm := g.Class("GEMM")
	gemm.Domain = func(emit func(Args)) {
		for l1 := 0; l1 < numChains; l1++ {
			for l2 := 0; l2 < chainLen(l1); l2++ {
				emit(A2(l1, l2))
			}
		}
	}
	gemm.Priority = func(a Args) int64 { return int64(numChains-a[0]) + 1 }
	gemm.AddFlow("A", Read).In(nil, func(a Args) (TaskRef, string) { return TaskRef{"READA", a}, "D" })
	gemm.AddFlow("B", Read).In(nil, func(a Args) (TaskRef, string) { return TaskRef{"READB", a}, "D" })
	gemm.AddFlow("C", RW).
		In(func(a Args) bool { return a[1] == 0 },
			func(a Args) (TaskRef, string) { return TaskRef{"DFILL", A1(a[0])}, "C" }).
		In(func(a Args) bool { return a[1] != 0 },
			func(a Args) (TaskRef, string) { return TaskRef{"GEMM", A2(a[0], a[1]-1)}, "C" }).
		Out(func(a Args) bool { return a[1] < chainLen(a[0])-1 },
			func(a Args) (TaskRef, string) { return TaskRef{"GEMM", A2(a[0], a[1]+1)}, "C" }).
		Out(func(a Args) bool { return a[1] == chainLen(a[0])-1 },
			func(a Args) (TaskRef, string) { return TaskRef{"SORT", A1(a[0])}, "C" })

	sort := g.Class("SORT")
	sort.Domain = func(emit func(Args)) {
		for l1 := 0; l1 < numChains; l1++ {
			emit(A1(l1))
		}
	}
	sort.AddFlow("C", RW).
		In(nil, func(a Args) (TaskRef, string) {
			return TaskRef{"GEMM", A2(a[0], chainLen(a[0])-1)}, "C"
		}).
		OutData(nil, func(a Args) DataRef {
			return DataRef{ID: fmt.Sprintf("out(%d)", a[0]), Bytes: 1024}
		})
	return g
}

func TestValidateOK(t *testing.T) {
	g := chainGraph(2, func(int) int { return 3 })
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsMissingDomain(t *testing.T) {
	g := NewGraph("bad")
	g.Class("X")
	if err := g.Validate(); err == nil {
		t.Error("missing Domain accepted")
	}
}

func TestValidateRejectsUnguardedNonLastInput(t *testing.T) {
	g := NewGraph("bad")
	tc := g.Class("X")
	tc.Domain = func(emit func(Args)) { emit(A1(0)) }
	f := tc.AddFlow("D", Read)
	f.InData(nil, func(a Args) DataRef { return DataRef{ID: "d"} })
	f.InData(func(a Args) bool { return true }, func(a Args) DataRef { return DataRef{ID: "e"} })
	if err := g.Validate(); err == nil {
		t.Error("unguarded non-last input accepted")
	}
}

func TestValidateRejectsAmbiguousSource(t *testing.T) {
	g := NewGraph("bad")
	tc := g.Class("X")
	tc.Domain = func(emit func(Args)) { emit(A1(0)) }
	tc.Flows = append(tc.Flows, &Flow{Name: "D", Ins: []InDep{{
		Data: func(a Args) DataRef { return DataRef{} },
		New:  func(a Args) int64 { return 1 },
	}}})
	if err := g.Validate(); err == nil {
		t.Error("two-source input accepted")
	}
}

func TestDuplicateClassAndFlowPanic(t *testing.T) {
	g := NewGraph("dup")
	tc := g.Class("X")
	tc.AddFlow("D", Read)
	for _, fn := range []func(){
		func() { g.Class("X") },
		func() { tc.AddFlow("D", Read) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestCountTasks(t *testing.T) {
	g := chainGraph(3, func(l1 int) int { return l1 + 1 }) // lens 1,2,3
	counts, total := g.CountTasks()
	// DFILL 3, READA 6, READB 6, GEMM 6, SORT 3 = 24.
	want := map[string]int{"DFILL": 3, "READA": 6, "READB": 6, "GEMM": 6, "SORT": 3}
	for k, v := range want {
		if counts[k] != v {
			t.Errorf("count[%s] = %d, want %d", k, counts[k], v)
		}
	}
	if total != 24 {
		t.Errorf("total = %d, want 24", total)
	}
}

func TestTrackerInitialReady(t *testing.T) {
	g := chainGraph(2, func(int) int { return 2 })
	tr, err := NewTracker(g)
	if err != nil {
		t.Fatal(err)
	}
	ready := tr.InitialReady()
	// DFILLs (New buffer) and all readers (terminal data) are ready;
	// GEMMs and SORTs wait.
	wantReady := 2 + 4 + 4
	if len(ready) != wantReady {
		t.Fatalf("initial ready = %d, want %d", len(ready), wantReady)
	}
	for _, in := range ready {
		if in.Ref.Class == "GEMM" || in.Ref.Class == "SORT" {
			t.Errorf("%v ready at start", in.Ref)
		}
	}
	if tr.Remaining() != 16 { // 2 DFILL + 4 READA + 4 READB + 4 GEMM + 2 SORT
		t.Errorf("Remaining = %d, want 16", tr.Remaining())
	}
}

// runAll drives the tracker to completion single-threadedly, returning
// the execution order.
func runAll(t *testing.T, tr *Tracker) []TaskRef {
	t.Helper()
	var order []TaskRef
	queue := append([]*Instance(nil), tr.InitialReady()...)
	for len(queue) > 0 {
		in := queue[0]
		queue = queue[1:]
		if err := tr.Start(in); err != nil {
			t.Fatal(err)
		}
		order = append(order, in.Ref)
		dels, err := tr.Complete(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dels {
			ready, err := tr.Deliver(d.To, d.ToFlow, fmt.Sprintf("payload:%v.%d", d.From.Ref, d.FromFlow))
			if err != nil {
				t.Fatal(err)
			}
			if ready {
				queue = append(queue, d.To)
			}
		}
	}
	return order
}

func TestTrackerRunsToCompletion(t *testing.T) {
	g := chainGraph(3, func(l1 int) int { return 2 + l1 })
	tr, err := NewTracker(g)
	if err != nil {
		t.Fatal(err)
	}
	order := runAll(t, tr)
	if !tr.Done() {
		t.Fatalf("not done: %v", tr.CheckQuiescent())
	}
	if err := tr.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	// Chain order: each GEMM(L1,k) must appear after GEMM(L1,k-1) and
	// after its readers; SORT(L1) last of its chain.
	posOf := map[TaskRef]int{}
	for i, r := range order {
		posOf[r] = i
	}
	for l1 := 0; l1 < 3; l1++ {
		for l2 := 0; l2 < 2+l1; l2++ {
			gr := TaskRef{"GEMM", A2(l1, l2)}
			if l2 > 0 && posOf[gr] < posOf[TaskRef{"GEMM", A2(l1, l2-1)}] {
				t.Errorf("GEMM(%d,%d) before its predecessor", l1, l2)
			}
			if posOf[gr] < posOf[TaskRef{"READA", A2(l1, l2)}] {
				t.Errorf("GEMM(%d,%d) before READA", l1, l2)
			}
		}
		if posOf[TaskRef{"SORT", A1(l1)}] < posOf[TaskRef{"GEMM", A2(l1, 1+l1)}] {
			t.Errorf("SORT(%d) before last GEMM", l1)
		}
	}
}

// TestTerminalWritesInSignatureAndDOT: an OutData dependency never
// reaches an executor — bodies and behaviors write their terminal data
// themselves, and Complete reports deliveries only — so the graph's two
// readers of it, the signature and the DOT export, are what pin it:
// SORT(0)'s write to out(0) is a signed edge and a dashed DOT edge.
func TestTerminalWritesInSignatureAndDOT(t *testing.T) {
	sig := func(id string) Sig {
		g := chainGraph(1, func(int) int { return 1 })
		if id != "out(0)" {
			g.ClassByName("SORT").Flows[0].Outs[0].Data = func(Args) DataRef { return DataRef{ID: id, Bytes: 1024} }
		}
		s, err := Signature(g)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// DFILL, READA and READB feed GEMM(0,0), which feeds SORT(0), which
	// writes out(0).
	if s := sig("out(0)"); s.Edges != 5 {
		t.Errorf("signature counts %d edges, want 5 with the terminal write", s.Edges)
	}
	if sig("out(0)") == sig("out(1)") {
		t.Error("signature does not see the terminal write's datum")
	}
	var buf strings.Builder
	if err := ExportDOT(chainGraph(1, func(int) int { return 1 }), &buf); err != nil {
		t.Fatal(err)
	}
	if want := `"SORT(0,0,0)" -> "out(0)" [style=dashed]`; !strings.Contains(buf.String(), want) {
		t.Errorf("DOT output lacks %s:\n%s", want, buf.String())
	}
}

func TestDeliverErrors(t *testing.T) {
	g := chainGraph(1, func(int) int { return 2 })
	tr, err := NewTracker(g)
	if err != nil {
		t.Fatal(err)
	}
	gemm0 := tr.Instance(TaskRef{"GEMM", A2(0, 0)})
	// Deliver to a flow with a data source (A comes from READA task, so
	// flow A is task-sourced; but DFILL's C flow is New-sourced).
	dfill := tr.Instance(TaskRef{"DFILL", A1(0)})
	if _, err := tr.Deliver(dfill, 0, nil); err == nil {
		t.Error("Deliver to New-sourced flow accepted")
	}
	// Duplicate delivery.
	if _, err := tr.Deliver(gemm0, 0, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Deliver(gemm0, 0, "x"); err == nil {
		t.Error("duplicate delivery accepted")
	}
	// Out-of-range flow.
	if _, err := tr.Deliver(gemm0, 99, "x"); err == nil {
		t.Error("out-of-range flow accepted")
	}
}

func TestStartCompleteStateErrors(t *testing.T) {
	g := chainGraph(1, func(int) int { return 1 })
	tr, _ := NewTracker(g)
	gemm := tr.Instance(TaskRef{"GEMM", A2(0, 0)})
	if err := tr.Start(gemm); err == nil {
		t.Error("Start of waiting task accepted")
	}
	if _, err := tr.Complete(gemm, nil); err == nil {
		t.Error("Complete of waiting task accepted")
	}
	dfill := tr.Instance(TaskRef{"DFILL", A1(0)})
	if err := tr.Start(dfill); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(dfill); err == nil {
		t.Error("double Start accepted")
	}
}

func TestInactiveFlow(t *testing.T) {
	// A class with a flow whose only input guard never fires: the flow is
	// inactive and the task is ready immediately.
	g := NewGraph("inactive")
	tc := g.Class("X")
	tc.Domain = func(emit func(Args)) { emit(A1(0)) }
	tc.AddFlow("D", Read).In(func(a Args) bool { return false },
		func(a Args) (TaskRef, string) { return TaskRef{"X", A1(99)}, "D" })
	tr, err := NewTracker(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.InitialReady()) != 1 {
		t.Error("task with inactive flow not initially ready")
	}
	x := tr.Instance(TaskRef{"X", A1(0)})
	if x.In[0] != nil {
		t.Error("inactive flow has payload")
	}
}

// TestDanglingEdgeFailsAtBuild: an out-dependency that names a task or a
// flow that does not exist is a structural error, reported by NewTracker
// before any task body can run — not by the Complete that first reaches
// the edge.
func TestDanglingEdgeFailsAtBuild(t *testing.T) {
	for _, c := range []struct {
		name, want string
		target     func(Args) (TaskRef, string)
	}{
		{"missing class", "nonexistent task Y(0,0,0)", func(Args) (TaskRef, string) { return TaskRef{"Y", A1(0)}, "D" }},
		{"missing instance", "nonexistent task Z(7,0,0)", func(Args) (TaskRef, string) { return TaskRef{"Z", A1(7)}, "D" }},
		{"missing flow", "nonexistent flow Z.Q", func(Args) (TaskRef, string) { return TaskRef{"Z", A1(0)}, "Q" }},
	} {
		g := NewGraph("dangling")
		x := g.Class("X")
		x.Domain = func(emit func(Args)) { emit(A1(0)) }
		x.AddFlow("D", Write).InNew(nil, func(Args) int64 { return 8 }).Out(nil, c.target)
		z := g.Class("Z")
		z.Domain = func(emit func(Args)) { emit(A1(0)) }
		z.AddFlow("D", Read).In(nil, func(Args) (TaskRef, string) { return TaskRef{"X", A1(0)}, "D" })
		if _, err := NewTracker(g); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: NewTracker error = %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// TestEdgeTargetsFollowEachConsumer: one output dependency whose
// consumer switches class and flow from instance to instance — the same
// flow name at different indexes in two classes, two flows of one class
// — delivers each edge to the flow its consumer named. The build caches
// the last target per dependency, and a switch must not reuse it.
func TestEdgeTargetsFollowEachConsumer(t *testing.T) {
	g := NewGraph("switching")
	src := g.Class("SRC")
	src.Domain = func(emit func(Args)) {
		for i := 0; i < 6; i++ {
			emit(A1(i))
		}
	}
	targets := []TaskRef{{"A", A1(0)}, {"B", A1(0)}, {"A", A1(1)}, {"A", A1(2)}, {"B", A1(1)}, {"A", A1(3)}}
	flows := []string{"D", "D", "E", "D", "D", "E"}
	src.AddFlow("X", Write).InNew(nil, func(Args) int64 { return 8 }).
		Out(nil, func(a Args) (TaskRef, string) { return targets[a[0]], flows[a[0]] })
	from := func(i int) func(Args) (TaskRef, string) {
		return func(Args) (TaskRef, string) { return TaskRef{"SRC", A1(i)}, "X" }
	}
	a := g.Class("A") // flows P (inactive), D, E
	a.Domain = func(emit func(Args)) {
		for i := 0; i < 4; i++ {
			emit(A1(i))
		}
	}
	a.AddFlow("P", Read)
	a.AddFlow("D", Read).In(func(x Args) bool { return x[0] != 1 && x[0] != 3 }, from(0)).In(nil, from(0))
	a.AddFlow("E", Read).In(func(x Args) bool { return x[0] == 1 || x[0] == 3 }, from(0))
	b := g.Class("B") // flow D at index 0
	b.Domain = func(emit func(Args)) { emit(A1(0)); emit(A1(1)) }
	b.AddFlow("D", Read).In(nil, from(0))
	tr, err := NewTracker(g)
	if err != nil {
		t.Fatal(err)
	}
	for i := range targets {
		in := tr.Instance(TaskRef{"SRC", A1(i)})
		dels, err := tr.Complete(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		to := tr.Instance(targets[i])
		want, _ := to.Class.FlowIndex(flows[i])
		if len(dels) != 1 || dels[0].To != to || dels[0].ToFlow != want {
			t.Fatalf("SRC(%d) delivers %+v, want %v flow %s (%d)", i, dels, targets[i], flows[i], want)
		}
	}
}

// TestSkeletonRefusals covers what only the skeleton build rejects: args
// and nodes outside int32, a class wider than the flow bitmask, and a
// domain that emits an instance twice (a panic, like a duplicate class).
func TestSkeletonRefusals(t *testing.T) {
	one := func(mutate func(tc *TaskClass)) *Graph {
		g := NewGraph("refused")
		tc := g.Class("X")
		tc.Domain = func(emit func(Args)) { emit(A1(0)) }
		mutate(tc)
		return g
	}
	for name, g := range map[string]*Graph{
		"wide arg":  one(func(tc *TaskClass) { tc.Domain = func(emit func(Args)) { emit(A1(1 << 40)) } }),
		"wide node": one(func(tc *TaskClass) { tc.Affinity = func(Args) int { return 1 << 40 } }),
		"33 flows": one(func(tc *TaskClass) {
			for i := 0; i <= maxFlows; i++ {
				tc.AddFlow(fmt.Sprintf("F%d", i), Read)
			}
		}),
	} {
		if _, err := NewTracker(g); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "emits [2 0 0] twice") {
			t.Errorf("duplicate emission: recovered %v", r)
		}
	}()
	NewTracker(one(func(tc *TaskClass) {
		tc.Domain = func(emit func(Args)) { emit(A1(2)); emit(A1(1)); emit(A1(2)) }
	}))
}

// TestInstanceLookup: Instance resolves every emitted reference — through
// the sorted index when a domain emits out of order — and returns nil for
// an unknown class or args the domain never emitted (the socket runtime's
// message handlers rely on nil, not a panic).
func TestInstanceLookup(t *testing.T) {
	g := chainGraph(3, func(l1 int) int { return 2 + l1 })
	shuffled := g.Class("SHUFFLED")
	emitted := []Args{A2(5, 1), A2(0, 9), A3(2, 2, 2), A2(-4, 0), A2(0, 3)}
	shuffled.Domain = func(emit func(Args)) {
		for _, a := range emitted {
			emit(a)
		}
	}
	tr, err := NewTracker(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range tr.Instances() {
		if got := tr.Instance(in.Ref); got != in || in.Seq != i {
			t.Errorf("Instance(%v) = %v (seq %d at index %d)", in.Ref, got, in.Seq, i)
		}
	}
	for _, a := range emitted {
		if in := tr.Instance(TaskRef{"SHUFFLED", a}); in == nil || in.Ref.Args != a {
			t.Errorf("Instance(SHUFFLED%v) = %v", a, in)
		}
	}
	for _, ref := range []TaskRef{
		{"NOSUCH", A1(0)},
		{"GEMM", A2(3, 0)},      // chain out of range
		{"GEMM", A2(0, 2)},      // position out of range
		{"GEMM", A2(-1, 0)},     // negative
		{"GEMM", A3(0, 0, 1)},   // stray third arg
		{"GEMM", A2(1<<40, 0)},  // does not fit int32
		{"SHUFFLED", A2(0, 4)},  // between two emitted
		{"SHUFFLED", A2(6, 0)},  // past the last
		{"SHUFFLED", A2(-5, 0)}, // before the first
	} {
		if in := tr.Instance(ref); in != nil {
			t.Errorf("Instance(%v) = %v, want nil", ref, in)
		}
	}
}

// TestBindMismatchedSkeleton: a skeleton bound to a graph with a
// different class or flow layout is an error from NewTracker, not a
// wrong run.
func TestBindMismatchedSkeleton(t *testing.T) {
	sk, err := NewSkeleton(chainGraph(2, func(int) int { return 2 }))
	if err != nil {
		t.Fatal(err)
	}
	same := chainGraph(2, func(int) int { return 2 })
	same.Bind(sk)
	if _, err := NewTracker(same); err != nil {
		t.Fatalf("matching layout refused: %v", err)
	}
	extraClass := chainGraph(2, func(int) int { return 2 })
	extraClass.Class("EXTRA").Domain = func(func(Args)) {}
	extraFlow := chainGraph(2, func(int) int { return 2 })
	extraFlow.ClassByName("SORT").AddFlow("S", Write)
	renamed := NewGraph("renamed")
	for _, tc := range same.Classes() {
		c := renamed.Class(strings.ToLower(tc.Name))
		c.Domain = tc.Domain
		for _, f := range tc.Flows {
			c.AddFlow(f.Name, f.Mode)
		}
	}
	for name, g := range map[string]*Graph{"extra class": extraClass, "extra flow": extraFlow, "renamed classes": renamed} {
		g.Bind(sk)
		if _, err := NewTracker(g); err == nil || !strings.Contains(err.Error(), "bound skeleton") {
			t.Errorf("%s: NewTracker error = %v", name, err)
		}
	}
}

// TestBoundTrackerAllocations: with a bound skeleton NewTracker is the
// tracker, one Instance slab and one payload slab, whatever the graph's
// size.
func TestBoundTrackerAllocations(t *testing.T) {
	allocs := func(chains int) float64 {
		g := chainGraph(chains, func(int) int { return 4 })
		sk, err := NewSkeleton(g)
		if err != nil {
			t.Fatal(err)
		}
		g.Bind(sk)
		return testing.AllocsPerRun(10, func() {
			if _, err := NewTracker(g); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4), allocs(400)
	if small != large || large > 8 {
		t.Errorf("NewTracker on a bound graph: %v allocations at 56 instances, %v at 5,600; want equal and <= 8", small, large)
	}
}

func TestPriorityAndAffinityRecorded(t *testing.T) {
	g := chainGraph(4, func(int) int { return 1 })
	gemm := g.ClassByName("GEMM")
	gemm.Affinity = func(a Args) int { return a[0] % 2 }
	tr, err := NewTracker(g)
	if err != nil {
		t.Fatal(err)
	}
	in := tr.Instance(TaskRef{"GEMM", A2(3, 0)})
	if in.Node != 1 {
		t.Errorf("Node = %d, want 1", in.Node)
	}
	if in.Priority != int64(4-3)+1 {
		t.Errorf("Priority = %d", in.Priority)
	}
}

func TestFlowBytesInDeliveries(t *testing.T) {
	g := chainGraph(1, func(int) int { return 1 })
	g.ClassByName("DFILL").FlowBytes = func(a Args, flow string) int64 { return 4096 }
	tr, err := NewTracker(g)
	if err != nil {
		t.Fatal(err)
	}
	dfill := tr.Instance(TaskRef{"DFILL", A1(0)})
	tr.Start(dfill)
	dels, err := tr.Complete(dfill, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dels) != 1 || dels[0].Bytes != 4096 {
		t.Errorf("deliveries = %+v", dels)
	}
}

// Complete appends to the caller's buffer, as CompleteDeliver does, so an
// executor that reuses one buffer allocates nothing per task.
func TestCompleteAppendsToCallerBuffer(t *testing.T) {
	g := chainGraph(1, func(int) int { return 1 })
	tr, err := NewTracker(g)
	if err != nil {
		t.Fatal(err)
	}
	dfill := tr.Instance(TaskRef{"DFILL", A1(0)})
	tr.Start(dfill)
	buf := make([]Delivery, 1, 4)
	buf[0].Bytes = -1
	dels, err := tr.Complete(dfill, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(dels) != 2 || dels[0].Bytes != -1 || dels[1].From != dfill || &dels[0] != &buf[0] {
		t.Errorf("Complete(in, buf) = %+v, want buf's entry then DFILL's delivery, in buf's array", dels)
	}
}

func TestSortRefsDeterministic(t *testing.T) {
	g := chainGraph(2, func(int) int { return 2 })
	refs := []TaskRef{
		{"SORT", A1(1)}, {"GEMM", A2(1, 0)}, {"DFILL", A1(0)},
		{"GEMM", A2(0, 1)}, {"SORT", A1(0)},
	}
	g.SortRefs(refs)
	want := []TaskRef{
		{"DFILL", A1(0)}, {"GEMM", A2(0, 1)}, {"GEMM", A2(1, 0)},
		{"SORT", A1(0)}, {"SORT", A1(1)},
	}
	for i := range want {
		if refs[i] != want[i] {
			t.Fatalf("SortRefs[%d] = %v, want %v", i, refs[i], want[i])
		}
	}
}

func TestArgsHelpers(t *testing.T) {
	if A1(5) != (Args{5, 0, 0}) || A2(1, 2) != (Args{1, 2, 0}) || A3(1, 2, 3) != (Args{1, 2, 3}) {
		t.Error("args constructors")
	}
	r := TaskRef{"GEMM", A2(1, 2)}
	if r.String() != "GEMM(1,2,0)" {
		t.Errorf("String = %q", r.String())
	}
	if Read.String() != "READ" || RW.String() != "RW" || Write.String() != "WRITE" {
		t.Error("mode strings")
	}
}

// TestTrackerResetIsFresh pins Reset against NewTracker: a tracker reset
// in the middle of a run — payloads delivered, tasks done, others
// running — onto the same bound graph, a smaller one, a larger one or an
// unbound one holds exactly what a new tracker of that graph holds, and
// runs the graph in the same order. A graph that fails validation
// leaves the tracker empty, and it resets cleanly after that.
func TestTrackerResetIsFresh(t *testing.T) {
	bound := func(g *Graph) *Graph {
		sk, err := NewSkeleton(g)
		if err != nil {
			t.Fatal(err)
		}
		g.Bind(sk)
		return g
	}
	big := bound(chainGraph(3, func(l1 int) int { return 2 + l1 }))
	small := bound(chainGraph(2, func(int) int { return 1 }))
	unbound := chainGraph(2, func(l1 int) int { return 3 - l1 })
	snapshot := func(tr *Tracker) []Instance {
		out := make([]Instance, len(tr.inst))
		for i, in := range tr.inst {
			out[i] = in
			out[i].In = slices.Clone(in.In)
		}
		return out
	}
	same := func(a, b []Instance) bool {
		return slices.EqualFunc(a, b, func(x, y Instance) bool {
			return x.Ref == y.Ref && x.Class == y.Class && x.Node == y.Node && x.Priority == y.Priority &&
				x.Seq == y.Seq && x.State == y.State && slices.Equal(x.In, y.In) &&
				x.delivered == y.delivered && x.fromTask == y.fromTask && x.pending == y.pending
		})
	}
	// half runs the first half of the graph's tasks, leaving the next one
	// started but not completed.
	half := func(tr *Tracker) {
		queue := tr.InitialReady()
		for n := 0; n < tr.NumInstances()/2 && len(queue) > 0; n++ {
			in := queue[0]
			queue = queue[1:]
			if err := tr.Start(in); err != nil {
				t.Fatal(err)
			}
			dels, err := tr.Complete(in, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range dels {
				if ready, err := tr.Deliver(d.To, d.ToFlow, "payload"); err != nil {
					t.Fatal(err)
				} else if ready {
					queue = append(queue, d.To)
				}
			}
		}
		if err := tr.Start(queue[0]); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := NewTracker(big)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{big, big, small, big, unbound, unbound, small} {
		half(tr)
		if err := tr.Reset(g); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewTracker(g)
		if err != nil {
			t.Fatal(err)
		}
		if !same(snapshot(tr), snapshot(fresh)) || tr.Remaining() != fresh.Remaining() || tr.G != g {
			t.Fatalf("%d-task graph: a reset tracker differs from a new one", fresh.NumInstances())
		}
		if got, want := runAll(t, tr), runAll(t, fresh); !slices.Equal(got, want) {
			t.Fatalf("%d-task graph: a reset tracker runs %v, a new one %v", fresh.NumInstances(), got, want)
		}
		if err := tr.Reset(g); err != nil {
			t.Fatal(err)
		}
	}

	bad := NewGraph("dangling")
	x := bad.Class("X")
	x.Domain = func(emit func(Args)) { emit(A1(0)) }
	x.AddFlow("D", Write).InNew(nil, func(Args) int64 { return 8 }).Out(nil, func(Args) (TaskRef, string) { return TaskRef{"Y", A1(0)}, "D" })
	if err := tr.Reset(bad); err == nil || tr.NumInstances() != 0 || tr.G != nil {
		t.Fatalf("Reset onto a dangling graph: error %v, %d instances left", err, tr.NumInstances())
	}
	if err := tr.Reset(small); err != nil || len(runAll(t, tr)) != tr.NumInstances() || !tr.Done() {
		t.Fatalf("Reset after a failed one: %v", err)
	}
}
