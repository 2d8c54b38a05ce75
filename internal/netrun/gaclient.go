package netrun

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parsec/internal/ga"
	"parsec/internal/tce"
	"parsec/internal/tensor"
)

// gaClient is a rank's Global Arrays surface (ga.API) in the
// distributed runtime. A ga_access of an immutable input tensor never
// asks the GA server for it: the inputs are a pure function of the
// workload seed, so each rank fills a local replica block on first
// access (deterministic input replication — the bytes are identical on
// every rank). That is the READ task's side only. What a READ produces
// still crosses ranks whenever its GEMM lives elsewhere — 62 MB per job
// of the benchmark's benzene-shaped problem on two ranks — as an
// activation that borrows the replica block itself (engine.sendActivate),
// which is one more reason replica blocks never retire. Accumulations
// and fetches of anything else go to the GA server process.
type gaClient struct {
	tp      *transport
	timeout time.Duration

	// replicas holds the rank's copy of each input tensor: the same
	// fill-on-access array a shared-memory execution uses, in its
	// never-retire form — a stolen or re-executed GEMM may read a block
	// again, and READ outputs cross ranks, so a rank cannot count a
	// block's readers.
	replicas map[string]*ga.Lazy

	reqID   atomic.Uint64
	pendMu  sync.Mutex
	pendGet map[uint64]chan *tensor.Tile4
	pendNxt map[uint64]chan int64
}

var _ ga.API = (*gaClient)(nil)

func newGAClient(tp *transport, w *tce.Workload, timeout time.Duration) *gaClient {
	a, b := w.Inputs()
	return &gaClient{
		tp:       tp,
		timeout:  timeout,
		replicas: map[string]*ga.Lazy{a.Name: ga.NewLazy(a), b.Name: ga.NewLazy(b)},
		pendGet:  make(map[uint64]chan *tensor.Tile4),
		pendNxt:  make(map[uint64]chan int64),
	}
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
		panic(fmt.Sprintf("netrun: Access(%q): not an input tensor; distributed reads use GetHashBlock", name))
	}
	return l.AccessKey(key)
}

// Release is a no-op: replica blocks stay for the run.
func (c *gaClient) Release(string, tensor.BlockKey) {}

// GetHashBlock fetches a copy of a block: input tensors from the local
// replica (row-major, like every ga_get, even where the replica block is
// born packed), everything else from the GA server (GET_HASH_BLOCK). A
// nil return means the server does not hold the block (or the request
// timed out during shutdown).
func (c *gaClient) GetHashBlock(name string, key tensor.BlockKey) *tensor.Tile4 {
	if l := c.replicas[name]; l != nil {
		return l.AccessKey(key).RowMajorCopy()
	}
	id := c.reqID.Add(1)
	ch := make(chan *tensor.Tile4, 1)
	c.pendMu.Lock()
	c.pendGet[id] = ch
	c.pendMu.Unlock()
	c.tp.counters.getOps.Add(1)
	c.tp.sendTo(coordRank, getMsg{ReqID: id, Name: name, Key: key}.encode())
	select {
	case t := <-ch:
		if t != nil {
			c.tp.counters.getBytes.Add(t.Bytes())
		}
		return t
	case <-time.After(c.timeout):
		c.pendMu.Lock()
		delete(c.pendGet, id)
		c.pendMu.Unlock()
		return nil
	}
}

// AccOrdered ships one ordered accumulation to the GA server. The tile
// is copied into its frame immediately, so the no-mutation-after-call
// contract of ga.Store applies only until this returns.
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
	return nil
}

// NxtVal fetches one ticket from the server's shared counter (NXTVAL).
// It returns -1 if the server does not answer within the timeout.
func (c *gaClient) NxtVal() int64 {
	id := c.reqID.Add(1)
	ch := make(chan int64, 1)
	c.pendMu.Lock()
	c.pendNxt[id] = ch
	c.pendMu.Unlock()
	c.tp.sendTo(coordRank, nxtValMsg{ReqID: id}.encode())
	select {
	case v := <-ch:
		return v
	case <-time.After(c.timeout):
		c.pendMu.Lock()
		delete(c.pendNxt, id)
		c.pendMu.Unlock()
		return -1
	}
}

// handleGetResp completes a pending GetHashBlock.
func (c *gaClient) handleGetResp(m getRespMsg) {
	c.pendMu.Lock()
	ch := c.pendGet[m.ReqID]
	delete(c.pendGet, m.ReqID)
	c.pendMu.Unlock()
	if ch != nil {
		ch <- m.Tile
	}
}

// handleNxtValResp completes a pending NxtVal.
func (c *gaClient) handleNxtValResp(m nxtValRespMsg) {
	c.pendMu.Lock()
	ch := c.pendNxt[m.ReqID]
	delete(c.pendNxt, m.ReqID)
	c.pendMu.Unlock()
	if ch != nil {
		ch <- m.Val
	}
}
