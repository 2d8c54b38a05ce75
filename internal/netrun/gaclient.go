package netrun

import (
	"fmt"
	"sync"

	"parsec/internal/ga"
	"parsec/internal/ptg"
	"parsec/internal/tce"
	"parsec/internal/tensor"
)

// gaClient is a rank's Global Arrays surface (ga.API) in the
// distributed runtime. A ga_access of an immutable input tensor never
// asks the GA server for it: the inputs are a pure function of the
// workload seed, so each rank holds a replica of each input tensor
// (deterministic input replication — the bytes are identical on every
// rank). A block of it becomes resident in one of two ways. A READ on
// this rank fills it on first access. Or a READ on the block's owner
// sends it here once: the owner ships each input block to each peer at
// most once (engine.sendActivate), tagging the activation with the
// block, and this rank adopts that tile as the block; every later
// activation of the block to this rank carries the tag alone and is
// resolved from the replica (engine.replicaBlock). The owner's data thus
// still crosses the wire, as the paper's READ ships it to the GEMM, but
// never twice to one rank. Accumulations go to the GA server process,
// which serves nothing else.
//
// The replica's storage is laid out once per job (reserve): READs run
// on their block's owner, so the rank's own READ instances name exactly
// the blocks it will fill, and those get one allocation per tensor,
// carved into tiles that their first access fills. The tiles adopted
// off the wire are pooled ones and go back to the pool when the rank
// exits (release); the carved tiles never do. A block nothing reserved
// — one an heir's re-executed READ or a tag-only refill fills — gets a
// tile of its own.
type gaClient struct {
	tp *transport

	// replicas holds the rank's copy of each input tensor: the same
	// fill-on-access array a shared-memory execution uses, in its
	// never-retire form — a GEMM an heir re-executes may read a block
	// again, and blocks arrive by adoption, so a rank cannot count a
	// block's readers.
	replicas map[string]*ga.Lazy
	// readBlock names the input block a READ instance reads
	// (ccsd.CompiledPlan.ReadBlock); nil leaves activations untagged.
	readBlock func(ptg.TaskRef) (name string, block int, ok bool)

	// adoptMu guards adoptedTiles: the pooled tiles adopted into the
	// replicas, which go back to the tile pool when the rank exits
	// (release).
	adoptMu      sync.Mutex
	adoptedTiles []*tensor.Tile4
}

var _ ga.API = (*gaClient)(nil)

func newGAClient(tp *transport, w *tce.Workload) *gaClient {
	a, b := w.Inputs()
	return &gaClient{
		tp:       tp,
		replicas: map[string]*ga.Lazy{a.Name: ga.NewLazy(a), b.Name: ga.NewLazy(b)},
	}
}

// reserve lays out the replicas' storage for the blocks this rank's own
// READs fill (ga.Lazy.Reserve): its READ instances in tr, by
// readBlock. Call it before anything reads the replicas.
func (c *gaClient) reserve(tr *ptg.Tracker, rank int) {
	want := make(map[string][]bool, len(c.replicas))
	for name, l := range c.replicas {
		want[name] = make([]bool, l.Source().NumBlocks())
	}
	for _, in := range tr.Instances() {
		if in.Node != rank {
			continue
		}
		if name, i, ok := c.readBlock(in.Ref); ok {
			want[name][i] = true
		}
	}
	for name, l := range c.replicas {
		l.Reserve(want[name])
	}
}

// adopted records a pooled tile a replica adopted.
func (c *gaClient) adopted(t *tensor.Tile4) {
	c.adoptMu.Lock()
	c.adoptedTiles = append(c.adoptedTiles, t)
	c.adoptMu.Unlock()
}

// release returns the adopted tiles to the tile pool. Nothing may use
// the replicas afterwards: call it once the rank's executor and
// transport have stopped.
func (c *gaClient) release() {
	c.adoptMu.Lock()
	for _, t := range c.adoptedTiles {
		tensor.PutTile4(t)
	}
	c.adoptedTiles = nil
	c.adoptMu.Unlock()
}

// Lazy returns the replica of the named input tensor (nil for any other
// name), so task bodies can address its blocks by number.
func (c *gaClient) Lazy(name string) *ga.Lazy { return c.replicas[name] }

// Access returns a direct reference to an input block's local replica,
// filling it on first use (ga_access; §IV-B's zero-copy read, with the
// owning node replaced by the deterministic replica).
func (c *gaClient) Access(name string, key tensor.BlockKey) *tensor.Tile4 {
	l := c.replicas[name]
	if l == nil {
		panic(fmt.Sprintf("netrun: Access(%q): not an input tensor; a rank reads only its input replicas", name))
	}
	return l.AccessKey(key)
}

// Release is a no-op: replica blocks stay for the run.
func (c *gaClient) Release(string, tensor.BlockKey) {}

// AccOrdered ships one ordered accumulation to the GA server. The tile
// is copied into its frame immediately. A contribution of the whole
// tile, [0, Len), is its only use — a SORT output that one WRITE
// accumulates — so src goes back to the tile pool once copied; the
// caller clears its reference (ptg.Ctx's In slot). A partial one leaves
// src with the caller: the WRITEs of a spanning block share it.
func (c *gaClient) AccOrdered(name string, key tensor.BlockKey, src *tensor.Tile4, scale float64, tag, lo, hi int) error {
	if lo < 0 || hi > src.Len() || lo > hi {
		return fmt.Errorf("netrun: AccOrdered [%d,%d) of %d elements", lo, hi, src.Len())
	}
	f, err := (accOrderedMsg{Name: name, Key: key, Tag: tag, Lo: lo, Hi: hi, Scale: scale, Tile: src}).encode()
	if err != nil {
		return err
	}
	c.tp.counters.accOps.Add(1)
	c.tp.counters.accBytes.Add(int64(len(f) - frameHeaderLen))
	c.tp.sendTo(coordRank, f)
	if lo == 0 && hi == src.Len() {
		tensor.PutTile4(src)
	}
	return nil
}
