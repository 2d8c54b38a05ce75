package ccsd

import (
	"fmt"
	"sync/atomic"

	"parsec/internal/ga"
	"parsec/internal/ptg"
	"parsec/internal/tce"
	"parsec/internal/tensor"
	"parsec/internal/xform"
)

// Options configures graph construction.
type Options struct {
	// Nodes is the affinity modulus: chains are distributed round-robin
	// over this many nodes (§IV-D), reads and writes run at the nodes
	// owning the Global Array blocks (§IV-B). Use 1 for shared memory.
	Nodes int
}

// Priority offsets of §IV-C: "We assign a higher priority to the tasks
// that read the input data ... (+5), then follow the tasks that perform
// the GEMM operation with offset +1, and all other task classes do not
// have an offset", each scaled by the number of participating nodes P,
// yielding a data-prefetch pipeline of depth 5·P.
const (
	readPriorityOffset = 5
	gemmPriorityOffset = 1
)

// builder carries construction state: the plan's resolved shape and
// per-chain plans, and the store the task bodies of this one graph
// close over. The closures read the plan's parts through b when they
// run, never a copy taken at build time — only the class structure is
// fixed by the shape — so point can aim a built graph at another plan
// of the same shape.
type builder struct {
	g     *ptg.Graph
	w     *tce.Workload
	shape xform.Shape
	store ga.API
	ps    []chainPlan
	nodes int
	// io is how the READA (0) and READB (1) bodies reach their tensors in
	// store, and how GEMM releases them.
	io [2]inputIO
	// sortsLeft counts, per chain, the fissioned SORTs of the running run
	// that have yet to read the chain's final C; the one that brings it
	// to zero gives the tile back. armSorts refills it before each run.
	sortsLeft []atomic.Int32
}

// BuildGraph constructs the PTG for one variant of the ported
// subroutine, for callers that want a graph and nothing else (dumps,
// signatures, hand-driven trackers): it compiles a throw-away plan and
// returns its graph unbound. Anything that runs the graph should keep
// the plan (Compile / CompileWorkload) instead.
func BuildGraph(w *tce.Workload, spec VariantSpec, opts Options) *ptg.Graph {
	return CompileWorkload(w, spec, opts).unbound(nil)
}

// point aims the builder, and with it every closure of its graph, at
// plan p, which must have the shape the graph was built for. The input
// arrays are looked up in the store again, so a store whose arrays were
// replaced for p is seen.
func (b *builder) point(p *CompiledPlan) {
	b.w, b.shape, b.ps, b.nodes = p.Workload, p.Shape, p.ps, p.Nodes
	b.io[0], b.io[1] = b.inputs()
}

// armSorts sets every chain's count of fissioned SORTs to its number of
// SORTs. A graph that runs more than once must be re-armed before each
// run: a canceled run leaves counts part-spent, and the next run would
// give a chain's C back while SORTs still have to read it.
func (b *builder) armSorts() {
	if !b.shape.SortFission || b.store == nil {
		return
	}
	if cap(b.sortsLeft) < len(b.ps) {
		b.sortsLeft = make([]atomic.Int32, len(b.ps))
	}
	b.sortsLeft = b.sortsLeft[:len(b.ps)]
	for l1 := range b.ps {
		p := &b.ps[l1]
		b.sortsLeft[l1].Store(int32(p.nsorts))
	}
}

// buildKernel adds the task classes of the ported subroutine.
func (b *builder) buildKernel() {
	b.buildDFill()
	b.buildReads()
	b.buildGemm()
	b.buildReduce()
	b.buildSort()
	b.buildWrite()
}

// ---- helpers ----

func (b *builder) numChains() int { return len(b.ps) }

// gemm returns the metadata of GEMM (L1, L2) = (a[0], a[1]) in place: the
// graph closures run once per instance during the skeleton build, and a
// GemmMeta copied by value there is an iteration vector, two block refs
// and three extents per call.
func (b *builder) gemm(a ptg.Args) *tce.GemmMeta { return &b.ps[a[0]].meta.Gemms[a[1]] }

// chainNode is the §IV-D static round-robin distribution of chains.
func (b *builder) chainNode(l1 int) int { return l1 % b.nodes }

func (b *builder) ownerNode(recorded int) int {
	if recorded < 0 {
		return 0
	}
	return recorded % b.nodes
}

// priority returns the §IV-C expression max_L1 - L1 + offset*P, or nil
// when the shape's priority scheme is none.
func (b *builder) priority(offset int) func(ptg.Args) int64 {
	if b.shape.Prio != xform.PrioPaper {
		return nil
	}
	return func(a ptg.Args) int64 {
		return int64(b.numChains()) - int64(a[0]) + int64(offset)*int64(b.nodes)
	}
}

// reduceFlow names the REDUCE input flow of the which-th child: "X" is
// the read-write accumulator branch, "Y", "Y2", ... the read-only
// siblings folded into it. Arity-2 trees therefore keep the historical
// X/Y naming bit-for-bit.
func reduceFlow(which int) string {
	switch which {
	case 0:
		return "X"
	case 1:
		return "Y"
	}
	return fmt.Sprintf("Y%d", which)
}

// sortSource identifies the producer of a chain's final C: the last GEMM
// when there is a single segment, else the top of the reduction tree.
func (b *builder) sortSource(l1 int) (ptg.TaskRef, string) {
	p := &b.ps[l1]
	if p.m == 1 {
		return ptg.TaskRef{Class: "GEMM", Args: ptg.A2(l1, p.n-1)}, "C"
	}
	return ptg.TaskRef{Class: "REDUCE", Args: ptg.A3(l1, p.top, 0)}, "X"
}

// addSortStageOuts appends the guarded output dependencies that route a
// chain's final C to its SORT task(s). srcGuard limits firing to the
// producing instance.
func (b *builder) addSortStageOuts(f *ptg.Flow, srcGuard func(ptg.Args) bool) {
	if b.shape.SortFission {
		for i := 0; i < 4; i++ {
			i := i
			f.Out(func(a ptg.Args) bool {
				return srcGuard(a) && i < b.ps[a[0]].nsorts
			}, func(a ptg.Args) (ptg.TaskRef, string) {
				return ptg.TaskRef{Class: "SORT", Args: ptg.A2(a[0], i)}, "C"
			})
		}
		return
	}
	f.Out(srcGuard, func(a ptg.Args) (ptg.TaskRef, string) {
		return ptg.TaskRef{Class: "SORT", Args: ptg.A1(a[0])}, "C"
	})
}

// inputIO is how task bodies reach one input tensor through the store.
// When the store holds the tensor as a ga.Lazy array over the workload's
// own block table, bodies address blocks by the number the inspection
// resolved (no name or key is hashed per task); any other store — an
// eagerly filled one, a foreign implementation — gets the keyed calls.
type inputIO struct {
	store ga.API
	lazy  *ga.Lazy
	tbl   *tce.InputTable
}

// inputs resolves the access paths of the A and B tensors for b's store;
// without a store (a simulation graph) there is nothing to resolve, and
// the workload's block tables are not even derived.
func (b *builder) inputs() (ioA, ioB inputIO) {
	if b.store == nil {
		return
	}
	ta, tb := b.w.Inputs()
	return b.inputIO(ta), b.inputIO(tb)
}

func (b *builder) inputIO(tbl *tce.InputTable) inputIO {
	io := inputIO{store: b.store, tbl: tbl}
	if s, ok := b.store.(interface{ Lazy(string) *ga.Lazy }); ok {
		if l := s.Lazy(tbl.Name); l != nil && l.Source() == tbl {
			io.lazy = l
		}
	}
	return io
}

// access is ga_access of the block GEMM(l1, l2) reads from the tensor;
// release is the matching ga_release.
func (io inputIO) access(l1, l2 int) *tensor.Tile4 {
	i := io.tbl.BlockOf(l1, l2)
	if io.lazy != nil {
		return io.lazy.Access(i)
	}
	return io.store.Access(io.tbl.Name, io.tbl.Blocks[i].Key)
}

func (io inputIO) release(l1, l2 int) {
	i := io.tbl.BlockOf(l1, l2)
	if io.lazy != nil {
		io.lazy.Release(i)
		return
	}
	io.store.Release(io.tbl.Name, io.tbl.Blocks[i].Key)
}

// ---- task classes ----

func (b *builder) buildDFill() {
	tc := b.g.Class("DFILL")
	tc.Domain = func(emit func(ptg.Args)) {
		for l1 := range b.ps {
			p := &b.ps[l1]
			for s := 0; s < p.m; s++ {
				emit(ptg.A2(l1, s))
			}
		}
	}
	tc.Affinity = func(a ptg.Args) int { return b.chainNode(a[0]) }
	tc.Priority = b.priority(0)
	tc.Cost = func(a ptg.Args) ptg.Cost {
		return ptg.Cost{MemBytes: b.ps[a[0]].cbytes}
	}
	tc.FlowBytes = func(a ptg.Args, flow string) int64 { return b.ps[a[0]].cbytes }
	f := tc.AddFlow("C", ptg.Write)
	f.InNew(nil, func(a ptg.Args) int64 { return b.ps[a[0]].cbytes })
	f.Out(nil, func(a ptg.Args) (ptg.TaskRef, string) {
		return ptg.TaskRef{Class: "GEMM", Args: ptg.A2(a[0], a[1]*b.ps[a[0]].h)}, "C"
	})
	if store := b.store; store != nil {
		tc.Body = func(ctx *ptg.Ctx) {
			d := b.ps[ctx.Args[0]].meta.CDims
			// Pooled: the chain accumulator is recycled by the consumer
			// that retires it (REDUCE folds its Y branches, the serial SORT
			// retires the chain's final C).
			ctx.Out[0] = tensor.GetTile4ZeroedIn(ctx.Pool, d[0], d[1], d[2], d[3])
		}
	}
}

func (b *builder) buildReads() {
	type readSpec struct {
		class string
		io    *inputIO
		ref   func(g *tce.GemmMeta) *tce.BlockRef
		node  func(g *tce.GemmMeta) int
	}
	for _, rs := range []readSpec{
		{"READA", &b.io[0],
			func(g *tce.GemmMeta) *tce.BlockRef { return &g.Op.A },
			func(g *tce.GemmMeta) int { return g.ANode }},
		{"READB", &b.io[1],
			func(g *tce.GemmMeta) *tce.BlockRef { return &g.Op.B },
			func(g *tce.GemmMeta) int { return g.BNode }},
	} {
		rs := rs
		tc := b.g.Class(rs.class)
		tc.Domain = func(emit func(ptg.Args)) {
			for l1 := range b.ps {
				p := &b.ps[l1]
				for l2 := 0; l2 < p.n; l2++ {
					emit(ptg.A2(l1, l2))
				}
			}
		}
		// Reads execute where the Global Array segment lives (Fig 1's
		// find_last_segment_owner); PaRSEC ships the result to the GEMM.
		tc.Affinity = func(a ptg.Args) int {
			return b.ownerNode(rs.node(b.gemm(a)))
		}
		tc.Priority = b.priority(readPriorityOffset)
		tc.Cost = func(a ptg.Args) ptg.Cost {
			// Local gather of the strided block into a contiguous send
			// buffer via ga_access (§IV-B): memory traffic only.
			return ptg.Cost{MemBytes: 2 * rs.ref(b.gemm(a)).Bytes()}
		}
		tc.FlowBytes = func(a ptg.Args, flow string) int64 {
			return rs.ref(b.gemm(a)).Bytes()
		}
		flowName := "A"
		if rs.class == "READB" {
			flowName = "B"
		}
		f := tc.AddFlow("D", ptg.Write)
		f.InData(nil, func(a ptg.Args) ptg.DataRef {
			g := b.gemm(a)
			ref := rs.ref(g)
			return ptg.DataRef{ID: ref.String(), Node: b.ownerNode(rs.node(g)), Bytes: ref.Bytes()}
		})
		f.Out(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "GEMM", Args: a}, flowName
		})
		if b.store != nil {
			tc.Body = func(ctx *ptg.Ctx) {
				// ga_access: direct, zero-copy reference (§IV-B); GEMMs
				// only read A and B, so no copy is needed. On a lazy
				// input array this is where the block is generated.
				ctx.Out[0] = rs.io.access(ctx.Args[0], ctx.Args[1])
			}
		}
	}
}

func (b *builder) buildGemm() {
	tc := b.g.Class("GEMM")
	tc.Domain = func(emit func(ptg.Args)) {
		for l1 := range b.ps {
			p := &b.ps[l1]
			for l2 := 0; l2 < p.n; l2++ {
				emit(ptg.A2(l1, l2))
			}
		}
	}
	tc.Affinity = func(a ptg.Args) int { return b.chainNode(a[0]) }
	tc.Priority = b.priority(gemmPriorityOffset)
	tc.Cost = func(a ptg.Args) ptg.Cost {
		g := b.gemm(a)
		return ptg.Cost{
			Flops:     g.Op.Flops(),
			GemmBytes: g.Op.A.Bytes() + g.Op.B.Bytes() + b.ps[a[0]].cbytes,
			// A and B panels are streamed fresh from memory regardless of
			// chain organization, so GEMM traffic is never cache-warm;
			// v1's locality advantage shows up in the SORT/WRITE path.
			Warm: false,
		}
	}
	tc.FlowBytes = func(a ptg.Args, flow string) int64 {
		if flow == "C" {
			return b.ps[a[0]].cbytes
		}
		return 0
	}
	tc.AddFlow("A", ptg.Read).In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
		return ptg.TaskRef{Class: "READA", Args: a}, "D"
	})
	tc.AddFlow("B", ptg.Read).In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
		return ptg.TaskRef{Class: "READB", Args: a}, "D"
	})
	c := tc.AddFlow("C", ptg.RW)
	c.In(func(a ptg.Args) bool { return b.ps[a[0]].posInSeg(a[1]) == 0 },
		func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "DFILL", Args: ptg.A2(a[0], b.ps[a[0]].seg(a[1]))}, "C"
		})
	c.In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
		return ptg.TaskRef{Class: "GEMM", Args: ptg.A2(a[0], a[1]-1)}, "C"
	})
	// Within a segment: pass C to the next GEMM.
	c.Out(func(a ptg.Args) bool { return !b.ps[a[0]].isSegEnd(a[1]) },
		func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "GEMM", Args: ptg.A2(a[0], a[1]+1)}, "C"
		})
	// Segment end, multiple segments: feed the reduction tree (Fig 4).
	c.Out(func(a ptg.Args) bool {
		p := b.ps[a[0]]
		return p.isSegEnd(a[1]) && p.m > 1
	}, func(a ptg.Args) (ptg.TaskRef, string) {
		p := b.ps[a[0]]
		s := p.seg(a[1])
		return ptg.TaskRef{Class: "REDUCE", Args: ptg.A3(a[0], 1, s/p.arity)}, reduceFlow(s % p.arity)
	})
	// Single segment: go straight to the SORT stage.
	b.addSortStageOuts(c, func(a ptg.Args) bool {
		p := b.ps[a[0]]
		return p.isSegEnd(a[1]) && p.m == 1
	})
	if b.store != nil {
		tc.Body = func(ctx *ptg.Ctx) {
			at := ctx.In[0].(*tensor.Tile4)
			bt := ctx.In[1].(*tensor.Tile4)
			ct := ctx.In[2].(*tensor.Tile4)
			// dgemm('T', 'N', ...) as in Fig 1. Large products split
			// their C columns across idle workers through the runtime's
			// lending handle; the result is bitwise identical to a
			// serial call for any part count. A and B come as their
			// blocks are stored — born-packed panels on the large
			// shapes (DESIGN.md §8) — and AsMatrix carries the layout.
			tensor.GemmP(ctx.Par, ctx.Pool, at.AsMatrix(), bt.AsMatrix(), ct.AsMatrix())
			// ga_release: this GEMM is done with its A and B. The last
			// reader's release is what retires a lazily filled block.
			b.io[0].release(ctx.Args[0], ctx.Args[1])
			b.io[1].release(ctx.Args[0], ctx.Args[1])
			ctx.Out[2] = ct
		}
	}
}

func (b *builder) buildReduce() {
	tc := b.g.Class("REDUCE")
	tc.Domain = func(emit func(ptg.Args)) {
		for l1 := range b.ps {
			p := &b.ps[l1]
			for lvl := 1; lvl <= p.top; lvl++ {
				for i := 0; i < p.width[lvl]; i++ {
					emit(ptg.A3(l1, lvl, i))
				}
			}
		}
	}
	tc.Affinity = func(a ptg.Args) int { return b.chainNode(a[0]) }
	tc.Priority = b.priority(0)
	tc.Cost = func(a ptg.Args) ptg.Cost {
		// Fold up to arity-1 sibling buffers into the accumulator: one
		// read + one write per fold, plus the accumulator read.
		return ptg.Cost{MemBytes: int64(2*b.ps[a[0]].arity-1) * b.ps[a[0]].cbytes}
	}
	tc.FlowBytes = func(a ptg.Args, flow string) int64 {
		if flow == "X" {
			return b.ps[a[0]].cbytes
		}
		return 0
	}
	childRef := func(a ptg.Args, which int) (ptg.TaskRef, string) {
		l1, lvl, i := a[0], a[1], a[2]
		child := b.ps[l1].arity*i + which
		if lvl == 1 {
			p := &b.ps[l1]
			return ptg.TaskRef{Class: "GEMM", Args: ptg.A2(l1, p.segLast(child))}, "C"
		}
		return ptg.TaskRef{Class: "REDUCE", Args: ptg.A3(l1, lvl-1, child)}, "X"
	}
	x := tc.AddFlow("X", ptg.RW)
	x.In(nil, func(a ptg.Args) (ptg.TaskRef, string) { return childRef(a, 0) })
	maxArity := 2
	for i := range b.ps {
		p := &b.ps[i]
		if p.arity > maxArity {
			maxArity = p.arity
		}
	}
	for which := 1; which < maxArity; which++ {
		which := which
		y := tc.AddFlow(reduceFlow(which), ptg.Read)
		y.In(func(a ptg.Args) bool {
			p := b.ps[a[0]]
			return which < p.arity && p.arity*a[2]+which < p.width[a[1]-1]
		}, func(a ptg.Args) (ptg.TaskRef, string) { return childRef(a, which) })
	}
	// Upward edge: to the parent reduction, or to the SORT stage at top.
	x.Out(func(a ptg.Args) bool { return a[1] < b.ps[a[0]].top },
		func(a ptg.Args) (ptg.TaskRef, string) {
			p := b.ps[a[0]]
			return ptg.TaskRef{Class: "REDUCE", Args: ptg.A3(a[0], a[1]+1, a[2]/p.arity)}, reduceFlow(a[2] % p.arity)
		})
	b.addSortStageOuts(x, func(a ptg.Args) bool { return a[1] == b.ps[a[0]].top })
	if b.store != nil {
		tc.Body = func(ctx *ptg.Ctx) {
			xt := ctx.In[0].(*tensor.Tile4)
			for i, in := range ctx.In[1:] {
				if in == nil {
					continue
				}
				yt := in.(*tensor.Tile4)
				xt.AddScaled(yt, 1)
				// The sibling branches are folded here and have no other
				// consumer.
				tensor.PutTile4In(ctx.Pool, yt)
				ctx.In[1+i] = nil
			}
			ctx.Out[0] = xt
		}
	}
}

func (b *builder) buildSort() {
	tc := b.g.Class("SORT")
	if b.shape.SortFission {
		tc.Domain = func(emit func(ptg.Args)) {
			for l1 := range b.ps {
				p := &b.ps[l1]
				for i := 0; i < p.nsorts; i++ {
					emit(ptg.A2(l1, i))
				}
			}
		}
	} else {
		tc.Domain = func(emit func(ptg.Args)) {
			for l1 := range b.ps {
				emit(ptg.A1(l1))
			}
		}
	}
	tc.Affinity = func(a ptg.Args) int { return b.chainNode(a[0]) }
	tc.Priority = b.priority(0)
	tc.Cost = func(a ptg.Args) ptg.Cost {
		p := b.ps[a[0]]
		if b.shape.SortFission {
			return ptg.Cost{MemBytes: tensor.Sort4Bytes(p.meta.Out.Elems())}
		}
		// One task performs every active SORT_4 serially, reusing hot
		// buffers (Fig 5): more traffic, better locality.
		return ptg.Cost{MemBytes: tensor.Sort4Bytes(p.meta.Out.Elems()) * int64(p.nsorts), Warm: true}
	}
	tc.FlowBytes = func(a ptg.Args, flow string) int64 {
		if flow == "S" {
			return b.ps[a[0]].cbytes
		}
		return 0
	}
	tc.AddFlow("C", ptg.Read).In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
		return b.sortSource(a[0])
	})
	s := tc.AddFlow("S", ptg.Write)
	s.InNew(nil, func(a ptg.Args) int64 { return b.ps[a[0]].cbytes })
	span := b.shape.WriteSpan
	switch {
	case b.shape.WriteFission:
		s.Out(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "WRITE", Args: a}, "I0"
		})
	case b.shape.SortFission:
		for seg := 0; seg < span; seg++ {
			seg := seg
			s.Out(nil, func(a ptg.Args) (ptg.TaskRef, string) {
				return ptg.TaskRef{Class: "WRITE", Args: ptg.A2(a[0], seg)}, fmt.Sprintf("I%d", a[1])
			})
		}
	default:
		for seg := 0; seg < span; seg++ {
			seg := seg
			s.Out(nil, func(a ptg.Args) (ptg.TaskRef, string) {
				return ptg.TaskRef{Class: "WRITE", Args: ptg.A2(a[0], seg)}, "I0"
			})
		}
	}
	if b.store != nil {
		if b.shape.SortFission {
			tc.Body = func(ctx *ptg.Ctx) {
				p := b.ps[ctx.Args[0]]
				src := ctx.In[0].(*tensor.Tile4)
				br := p.meta.Sorts[ctx.Args[1]]
				d := p.meta.Out.Dims
				// Pooled and not zeroed: Sort4 writes every element. The
				// store that folds the tile gives it back (ga.API).
				dst := tensor.GetTile4In(ctx.Pool, d[0], d[1], d[2], d[3])
				tensor.Sort4(dst, src, br.Perm, br.Sign)
				// The chain's SORTs share its final C; the last of them
				// to read it gives it back.
				if b.sortsLeft[ctx.Args[0]].Add(-1) == 0 {
					tensor.PutTile4In(ctx.Pool, src)
					ctx.In[0] = nil
				}
				ctx.Out[1] = dst
			}
		} else {
			tc.Body = func(ctx *ptg.Ctx) {
				p := b.ps[ctx.Args[0]]
				src := ctx.In[0].(*tensor.Tile4)
				d := p.meta.Out.Dims
				// Pooled, and handed to the store, which gives it back
				// once its block is folded (ga.API). Each permutation
				// accumulates straight into the zeroed dst via Sort4Add —
				// bitwise identical to permuting into scratch and adding
				// (one multiply, one add per element either way), minus a
				// full tile of traffic per permutation.
				dst := tensor.GetTile4ZeroedIn(ctx.Pool, d[0], d[1], d[2], d[3])
				for _, br := range p.meta.Sorts {
					tensor.Sort4Add(dst, src, br.Perm, br.Sign)
				}
				// The merged SORT is the single consumer of the chain's
				// final C.
				tensor.PutTile4In(ctx.Pool, src)
				ctx.In[0] = nil
				ctx.Out[1] = dst
			}
		}
	}
}

func (b *builder) buildWrite() {
	tc := b.g.Class("WRITE")
	span := b.shape.WriteSpan
	if b.shape.WriteFission {
		tc.Domain = func(emit func(ptg.Args)) {
			for l1 := range b.ps {
				p := &b.ps[l1]
				for i := 0; i < p.nsorts; i++ {
					emit(ptg.A2(l1, i))
				}
			}
		}
	} else {
		tc.Domain = func(emit func(ptg.Args)) {
			for l1 := range b.ps {
				for seg := 0; seg < span; seg++ {
					emit(ptg.A2(l1, seg))
				}
			}
		}
	}
	// Writes run where the Global Array data lives (Fig 8); with a
	// spanning block, segment s lives on the s-th node after the base
	// owner.
	if b.shape.WriteFission {
		tc.Affinity = func(a ptg.Args) int { return b.ownerNode(b.ps[a[0]].meta.OutNode) }
	} else {
		tc.Affinity = func(a ptg.Args) int {
			return (b.ownerNode(b.ps[a[0]].meta.OutNode) + a[1]) % b.nodes
		}
		if span > 1 {
			// Each instance receives only its slice of the sorted matrix.
			tc.InBytes = func(a ptg.Args, flow string) int64 {
				return (b.ps[a[0]].cbytes + int64(span) - 1) / int64(span)
			}
		}
	}
	tc.Priority = b.priority(0)
	nIn := 1
	if !b.shape.WriteFission && b.shape.SortFission {
		nIn = 4
	}
	for i := 0; i < nIn; i++ {
		i := i
		f := tc.AddFlow(fmt.Sprintf("I%d", i), ptg.Read)
		switch {
		case b.shape.WriteFission:
			f.In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
				return ptg.TaskRef{Class: "SORT", Args: a}, "S"
			})
		case b.shape.SortFission:
			f.In(func(a ptg.Args) bool { return i < b.ps[a[0]].nsorts },
				func(a ptg.Args) (ptg.TaskRef, string) {
					return ptg.TaskRef{Class: "SORT", Args: ptg.A2(a[0], i)}, "S"
				})
		default:
			f.In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
				return ptg.TaskRef{Class: "SORT", Args: ptg.A1(a[0])}, "S"
			})
		}
		f.OutData(nil, func(a ptg.Args) ptg.DataRef {
			out := b.ps[a[0]].meta.Out
			return ptg.DataRef{ID: out.String(), Node: b.ownerNode(b.ps[a[0]].meta.OutNode), Bytes: out.Bytes()}
		})
	}
	if store := b.store; store != nil {
		// ADD_HASH_BLOCK semantics, but through the store's ordered
		// accumulation: contributions to a C block are folded in task
		// creation order (ctx.Seq), not completion order, so the energy
		// is bitwise identical under every scheduler configuration.
		if !b.shape.WriteFission && span > 1 {
			tc.Body = func(ctx *ptg.Ctx) {
				p := b.ps[ctx.Args[0]]
				seg := ctx.Args[1]
				n := p.meta.Out.Elems()
				lo, hi := seg*n/span, (seg+1)*n/span
				for fi, in := range ctx.In {
					if t, ok := in.(*tensor.Tile4); ok {
						ctx.Fail(store.AccOrdered(tce.TensorC, p.meta.Out.Key, t, 1, ctx.Seq*len(ctx.In)+fi, lo, hi))
					}
				}
			}
		} else {
			// A whole-tile contribution hands src to the store (ga.API),
			// so the body clears its In slot: an executor that owns the
			// tile's storage must not return it again.
			tc.Body = func(ctx *ptg.Ctx) {
				key := b.ps[ctx.Args[0]].meta.Out.Key
				for fi, in := range ctx.In {
					if t, ok := in.(*tensor.Tile4); ok {
						if err := store.AccOrdered(tce.TensorC, key, t, 1, ctx.Seq*len(ctx.In)+fi, 0, t.Len()); err != nil {
							ctx.Fail(err)
						} else {
							ctx.In[fi] = nil
						}
					}
				}
			}
		}
	}
	// WRITE has no Cost function: its simulated execution is supplied by
	// the executor behavior (mutex + ADD_HASH_BLOCK), see sim.go.
}
