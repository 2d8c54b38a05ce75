package netrun

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"parsec/internal/ga"
	"parsec/internal/ptg"
	"parsec/internal/tce"
)

// BuildFn constructs one rank's view of the graph. Every rank builds
// the same graph (deterministic enumeration is the protocol's shared
// ground truth); store is the rank's GA surface, nil for jobs without
// one.
type BuildFn func(rank int, store ga.API) (*ptg.Graph, error)

// worker is one rank's process-local state: transport, tracker, engine,
// GA client, and the two lifecycle signals (welcome, shutdown).
type worker struct {
	cfg  Config
	rank int
	tp   *transport
	gac  *gaClient
	eng  *engine

	welcomeCh chan welcomeMsg
	shutOnce  sync.Once
	shutCh    chan struct{}
}

// runWorker executes one rank end to end: listen, register, await the
// welcome roster, connect to peers, run the engine until the
// coordinator's shutdown (or failure), and ship the final self-report.
// workload is non-nil for CCSD jobs (it backs the GA client's
// deterministic input replicas).
func runWorker(cfg Config, rank int, coordAddr string, workload *tce.Workload, build BuildFn) error {
	network, listen := cfg.listenSpec(rank)
	tp, err := newTransport(rank, network, listen, cfg.Retry, newInjector(cfg.Fault), cfg.Sever)
	if err != nil {
		return err
	}
	tp.recoverDeadPeers = cfg.Recover
	w := &worker{
		cfg:       cfg,
		rank:      rank,
		tp:        tp,
		welcomeCh: make(chan welcomeMsg, 1),
		shutCh:    make(chan struct{}),
	}
	var store ga.API
	if workload != nil {
		w.gac = newGAClient(tp, workload, 5*time.Second)
		store = w.gac
	}
	g, err := build(rank, store)
	if err != nil {
		tp.close()
		return err
	}
	tr, err := ptg.NewTracker(g)
	if err != nil {
		tp.close()
		return err
	}
	w.eng = newEngine(cfg, rank, tp, tr)
	tp.serve(w.handle, nil)
	tp.connect(coordRank, coordAddr)
	tp.runRetryTimer(w.eng.fail)
	tp.sendTo(coordRank, registerMsg{Rank: rank, Addr: tp.addr()}.encode())

	var welcome welcomeMsg
	select {
	case welcome = <-w.welcomeCh:
	case <-time.After(cfg.Deadline):
		tp.close()
		return fmt.Errorf("netrun: rank %d: no welcome before deadline", rank)
	case <-w.shutCh:
		tp.close()
		return w.eng.err()
	}
	for r, addr := range welcome.Addrs {
		if r != rank {
			tp.connect(r, addr)
		}
	}

	w.eng.run()
	select {
	case <-w.shutCh:
	case <-time.After(cfg.Deadline):
		w.eng.fail(fmt.Errorf("netrun: rank %d: deadline exceeded", rank))
	}
	w.eng.stop()
	w.eng.wait()

	rep, err := encodeReport(w.eng.report())
	if err == nil {
		tp.sendTo(coordRank, rep)
	}
	// Give the report a moment to land; the coordinator tolerates missing
	// reports, so this is best-effort. Peers are not waited for: after a
	// cancel they may have gone with our last frames unacknowledged.
	tp.waitDrained(tp.chanTo(coordRank), nil, 2*time.Second)
	tp.close()
	return w.eng.err()
}

// handle dispatches one deduplicated inbound frame on a rank. Frames
// from one sender arrive in order; everything here is quick except the
// flush probe, which waits on its own goroutine.
func (w *worker) handle(from int, f frame) {
	switch f.typ {
	case msgWelcome:
		m, err := decodeWelcome(f.body)
		if err != nil {
			w.eng.fail(err)
			return
		}
		select {
		case w.welcomeCh <- m:
		default:
		}
	case msgActivate:
		m, err := decodeActivate(f.body)
		if err != nil {
			w.eng.fail(err)
			return
		}
		w.eng.handleActivate(m)
	case msgMigrate:
		m, err := decodeMigrate(f.body)
		if err != nil {
			w.eng.fail(err)
			return
		}
		w.eng.handleMigrate(m)
	case msgStealProbe:
		m, err := decodeSteal(f.body)
		if err != nil {
			w.eng.fail(err)
			return
		}
		w.eng.handleStealProbe(m.Thief)
	case msgTakeover:
		m, err := decodeTakeover(f.body)
		if err != nil {
			w.eng.fail(err)
			return
		}
		w.eng.handleTakeover(m)
	case msgFlushReq:
		// Ack only once every outbound frame (accumulations included) is
		// acknowledged, and tell the coordinator how many distinct accs
		// we sent so it can match them against its post-apply count.
		go func() {
			if w.tp.waitDrained(nil, w.shutCh, w.cfg.Deadline) {
				accs := w.tp.counters.accOps.Load()
				w.tp.sendTo(coordRank, flushAckMsg{Accs: accs}.encode())
			}
		}()
	case msgGetResp:
		m, err := decodeGetResp(f.body)
		if err != nil {
			w.eng.fail(err)
			return
		}
		if w.gac != nil {
			w.gac.handleGetResp(m)
		}
	case msgNxtValResp:
		m, err := decodeNxtValResp(f.body)
		if err != nil {
			w.eng.fail(err)
			return
		}
		if w.gac != nil {
			w.gac.handleNxtValResp(m)
		}
	case msgShutdown:
		w.shutOnce.Do(func() { close(w.shutCh) })
	}
}

// encodeReport marshals a rank's final self-report for the wire.
func encodeReport(rep RankReport) ([]byte, error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	return doneInfoMsg{JSON: b, Spans: rep.Spans}.encode(), nil
}
