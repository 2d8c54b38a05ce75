package ccsd

import (
	"fmt"

	"parsec/internal/dtd"
	"parsec/internal/tce"
	"parsec/internal/tensor"
	"parsec/internal/xform"
)

// BuildDTD expresses the ported kernel as a Dynamic Task Discovery
// skeleton program — the alternative programming model of §VI: the
// skeleton inserts one task per DFILL/GEMM/SORT/WRITE in program order,
// declaring data accesses, and the engine discovers the dependency DAG in
// memory by access matching.
//
// Only the serial-chain shapes of the recipe space are expressible: the
// skeleton's GEMMs read-write one C per chain in program order, so
// chain splitting, reduction trees, and write spans would require
// restructuring the skeleton — which is exactly the flexibility point
// the paper makes for the PTG, and BuildDTD returns an error for such
// shapes rather than silently building the wrong graph. Sort fission
// maps naturally (one read-only SORTWRITE per branch vs one merged
// task), and the priority scheme carries over to the engine's queue.
//
// If materialize is true, input blocks are seeded and task bodies perform
// the real arithmetic; otherwise bodies are nil and the engine only
// builds the DAG (for construction-cost comparisons).
func BuildDTD(w *tce.Workload, spec VariantSpec, materialize bool) (*dtd.Engine, *tensor.BlockTensor4, error) {
	shape, err := spec.Shape()
	if err != nil {
		return nil, nil, err
	}
	if shape.SegHeight != 0 {
		return nil, nil, fmt.Errorf("ccsd: DTD skeleton cannot express seg=%d (serial chains only; use the PTG builders)", shape.SegHeight)
	}
	if shape.WriteSpan > 1 {
		return nil, nil, fmt.Errorf("ccsd: DTD skeleton cannot express span=%d (the write is fused into each SORT; use the PTG builders)", shape.WriteSpan)
	}
	usePrio := shape.Prio == xform.PrioPaper
	e := dtd.New()
	out := tensor.NewBlockTensor4()
	var a, b *tensor.BlockTensor4
	if materialize {
		a, b = w.Materialize()
		aName, bName := w.InputTensors()
		for _, ref := range w.UniqueBlocks(aName) {
			e.Put(ref.String(), a.MustTile(ref.Key))
		}
		for _, ref := range w.UniqueBlocks(bName) {
			e.Put(ref.String(), b.MustTile(ref.Key))
		}
	}
	numChains := int64(len(w.Chains))
	for _, c := range w.Chains {
		c := c
		ckey := fmt.Sprintf("C(%d)", c.ID)
		var prio int64
		if usePrio {
			prio = numChains - int64(c.ID)
		}
		var body func(*dtd.Ctx)
		if materialize {
			body = func(ctx *dtd.Ctx) {
				d := c.CDims
				ctx.Set(ckey, tensor.GetTile4Zeroed(d[0], d[1], d[2], d[3]))
			}
		}
		e.Insert(fmt.Sprintf("DFILL(%d)", c.ID), prio, body, dtd.Write(ckey))
		gemmPrio := prio
		if usePrio {
			gemmPrio += numChains
		}
		for pos, g := range c.Gemms {
			g := g
			if materialize {
				body = func(ctx *dtd.Ctx) {
					at := ctx.Get(g.Op.A.String()).(*tensor.Tile4)
					bt := ctx.Get(g.Op.B.String()).(*tensor.Tile4)
					ct := ctx.Get(ckey).(*tensor.Tile4)
					tensor.Gemm(true, false, 1, at.AsMatrix(), bt.AsMatrix(), 1, ct.AsMatrix())
				}
			}
			e.Insert(fmt.Sprintf("GEMM(%d,%d)", c.ID, pos), gemmPrio, body,
				dtd.ReadWrite(ckey), dtd.Read(g.Op.A.String()), dtd.Read(g.Op.B.String()))
		}
		if shape.SortFission {
			for _, s := range c.Sorts {
				s := s
				if materialize {
					body = func(ctx *dtd.Ctx) {
						src := ctx.Get(ckey).(*tensor.Tile4)
						d := c.Out.Dims
						// Scratch only: Acc folds the sorted block into the
						// output tensor immediately, so the tile is recycled.
						dst := tensor.GetTile4(d[0], d[1], d[2], d[3])
						tensor.Sort4(dst, src, s.Perm, s.Sign)
						out.Acc(c.Out.Key, dst, 1)
						tensor.PutTile4(dst)
					}
				}
				e.Insert(fmt.Sprintf("SORTWRITE(%d,%d)", c.ID, s.Branch), prio, body,
					dtd.Read(ckey))
			}
		} else {
			// Fused sorts: one task performs every active SORT_4 serially
			// (Fig 5), accumulating into a single buffer before the write.
			if materialize {
				body = func(ctx *dtd.Ctx) {
					src := ctx.Get(ckey).(*tensor.Tile4)
					d := c.Out.Dims
					dst := tensor.GetTile4Zeroed(d[0], d[1], d[2], d[3])
					for _, s := range c.Sorts {
						tensor.Sort4Add(dst, src, s.Perm, s.Sign)
					}
					out.Acc(c.Out.Key, dst, 1)
					tensor.PutTile4(dst)
				}
			}
			e.Insert(fmt.Sprintf("SORTWRITE(%d)", c.ID), prio, body, dtd.Read(ckey))
		}
	}
	return e, out, nil
}
