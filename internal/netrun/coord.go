package netrun

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"parsec/internal/ga"
	"parsec/internal/ptg"
	"parsec/internal/tensor"
)

// coordSpec tells the coordinator what it serves and how the run ends.
type coordSpec struct {
	// numInstances is the graph's task count; the run terminates when
	// every sequence number has been reported completed.
	numInstances int
	// arrays are the Global Arrays the server creates (the CCSD job's
	// output tensor).
	arrays []string
	// energy, if non-nil, reduces the server's folded store to the final
	// scalar after the flush barrier.
	energy func(st *ga.Store) float64
	// graph builds the job's graph once more, should the caller ask the
	// result for its trace (Result.Trace).
	graph func() *ptg.Graph
}

// accKey identifies one ordered accumulation for the server-side dedup:
// a re-executed WRITE (heir recovery) or a replayed message presents the
// same (array, block, tag, segment) and must fold exactly once. The
// store's own fold-time dedup compares tile pointers, which wire
// deserialization never preserves, so the server keeps its own set.
type accKey struct {
	name string
	key  tensor.BlockKey
	tag  int
	lo   int
}

// coordinator is the rank -1 process: registration barrier, GA server,
// termination bitset, steal broker, death detector, and result
// assembly.
type coordinator struct {
	cfg   Config
	spec  coordSpec
	tp    *transport
	store *ga.Store
	// served guards Array panics: Get requests for arrays the server
	// never created answer nil instead of exploding.
	served map[string]bool

	mu        sync.Mutex
	addrs     map[int]string
	completed []bool
	ncomplete int
	backlog   map[int]int
	lastSeen  map[int]time.Time
	dead      map[int]int   // dead rank -> heir
	flushAcks map[int]int64 // rank -> accs the rank reports having sent
	accRecvd  map[int]int64 // rank -> accs fully handled (post-apply)
	reports   map[int]RankReport
	accSeen   map[accKey]bool
	accClosed bool
	failure   error

	allRegCh chan struct{}
	regOnce  sync.Once
	failCh   chan struct{}
	failOnce sync.Once
	// wake is posted whenever a handler changed something wait may be
	// blocked on: a completion, an accumulation applied, a flush ack, a
	// rank report.
	wake wakeup

	start time.Time
}

// startCoordinator opens the coordinator endpoint. Workers are started
// by the caller and told this address.
func startCoordinator(cfg Config, spec coordSpec) (*coordinator, error) {
	network, listen := cfg.listenSpec(coordRank)
	// The coordinator's own sends (welcome, probes, takeover) are not
	// fault-injected: the chaos model targets the data plane.
	tp, err := newTransport(coordRank, network, listen, cfg.Retry, nil, nil)
	if err != nil {
		return nil, err
	}
	co := &coordinator{
		cfg:       cfg,
		spec:      spec,
		tp:        tp,
		store:     ga.NewStore(cfg.Ranks),
		served:    make(map[string]bool),
		addrs:     make(map[int]string),
		completed: make([]bool, spec.numInstances),
		backlog:   make(map[int]int),
		lastSeen:  make(map[int]time.Time),
		dead:      make(map[int]int),
		flushAcks: make(map[int]int64),
		accRecvd:  make(map[int]int64),
		reports:   make(map[int]RankReport),
		accSeen:   make(map[accKey]bool),
		allRegCh:  make(chan struct{}),
		failCh:    make(chan struct{}),
		wake:      make(wakeup, 1),
		start:     time.Now(),
	}
	for _, name := range spec.arrays {
		co.store.Create(name)
		co.served[name] = true
	}
	tp.serve(co.handle, co.noteSeen)
	tp.runRetryTimer(co.fail)
	return co, nil
}

func (co *coordinator) addr() string { return co.tp.addr() }

func (co *coordinator) fail(err error) {
	co.mu.Lock()
	if co.failure == nil {
		co.failure = err
	}
	co.mu.Unlock()
	co.failOnce.Do(func() { close(co.failCh) })
}

// noteSeen timestamps any inbound frame from a rank — the liveness
// signal death detection reads.
func (co *coordinator) noteSeen(from int) {
	co.mu.Lock()
	if _, isDead := co.dead[from]; !isDead {
		co.lastSeen[from] = time.Now()
	}
	co.mu.Unlock()
}

// handle dispatches one deduplicated inbound frame. It runs on the
// sender's connection goroutine, so work per frame stays short; frames
// from one rank arrive in order, which the flush barrier relies on
// (a FlushAck is handled only after every earlier accumulation from
// that rank).
func (co *coordinator) handle(from int, f frame) {
	switch f.typ {
	case msgRegister:
		m, err := decodeRegister(f.body)
		if err != nil {
			co.fail(err)
			return
		}
		co.tp.connect(m.Rank, m.Addr)
		co.mu.Lock()
		co.addrs[m.Rank] = m.Addr
		n := len(co.addrs)
		co.lastSeen[m.Rank] = time.Now()
		co.mu.Unlock()
		if n == co.cfg.Ranks {
			co.regOnce.Do(func() { close(co.allRegCh) })
		}
	case msgDone:
		m, err := decodeDone(f.body)
		if err != nil {
			co.fail(err)
			return
		}
		co.mu.Lock()
		for _, s := range m.Seqs {
			if s >= 0 && s < len(co.completed) && !co.completed[s] {
				co.completed[s] = true
				co.ncomplete++
			}
		}
		co.mu.Unlock()
		co.wake.post()
	case msgStatus:
		m, err := decodeStatus(f.body)
		if err != nil {
			co.fail(err)
			return
		}
		co.mu.Lock()
		co.backlog[from] = m.Backlog
		co.mu.Unlock()
	case msgAccOrdered:
		m, err := decodeAccOrdered(f.body)
		if err != nil {
			co.fail(err)
			return
		}
		co.mu.Lock()
		k := accKey{name: m.Name, key: m.Key, tag: m.Tag, lo: m.Lo}
		apply := !co.accClosed && !co.accSeen[k]
		if apply {
			co.accSeen[k] = true
		}
		co.mu.Unlock()
		if apply {
			if err := co.store.AccOrdered(m.Name, m.Key, m.Tile, m.Scale, m.Tag, m.Lo, m.Hi); err != nil {
				co.fail(err)
			}
		}
		co.mu.Lock()
		co.accRecvd[from]++ // post-apply: the flush barrier counts on it
		co.mu.Unlock()
		co.wake.post()
	case msgGetReq:
		m, err := decodeGet(f.body)
		if err != nil {
			co.fail(err)
			return
		}
		var tile *tensor.Tile4
		if co.served[m.Name] {
			if t, ok := co.store.Array(m.Name).Tile(m.Key); ok {
				tile = t.Clone()
			}
		}
		co.tp.sendTo(from, getRespMsg{ReqID: m.ReqID, Tile: tile}.encode())
	case msgNxtValReq:
		m, err := decodeNxtVal(f.body)
		if err != nil {
			co.fail(err)
			return
		}
		co.tp.sendTo(from, nxtValRespMsg{ReqID: m.ReqID, Val: co.store.NxtVal()}.encode())
	case msgStealReq:
		m, err := decodeSteal(f.body)
		if err != nil {
			co.fail(err)
			return
		}
		co.brokerSteal(m.Thief)
	case msgStealNone:
		if _, err := decodeSteal(f.body); err != nil {
			co.fail(err)
			return
		}
		// The victim had nothing migratable: its recorded backlog is
		// stale, so stop nominating it until the next heartbeat.
		co.mu.Lock()
		co.backlog[from] = 0
		co.mu.Unlock()
	case msgFlushAck:
		m, err := decodeFlushAck(f.body)
		if err != nil {
			co.fail(err)
			return
		}
		co.mu.Lock()
		co.flushAcks[from] = m.Accs
		co.mu.Unlock()
		co.wake.post()
	case msgDoneInfo:
		m, err := decodeDoneInfo(f.body)
		if err != nil {
			co.fail(err)
			return
		}
		var rep RankReport
		if err := json.Unmarshal(m.JSON, &rep); err != nil {
			co.fail(fmt.Errorf("netrun: rank %d done info: %w", from, err))
			return
		}
		rep.Spans = m.Spans
		co.mu.Lock()
		co.reports[from] = rep
		co.mu.Unlock()
		co.wake.post()
	case msgError:
		m, err := decodeError(f.body)
		if err != nil {
			co.fail(err)
			return
		}
		co.fail(fmt.Errorf("netrun: rank %d failed: %s", from, m.Text))
	}
}

// brokerSteal nominates the live rank with the deepest reported backlog
// as the thief's victim and forwards a probe; the victim decides.
func (co *coordinator) brokerSteal(thief int) {
	co.mu.Lock()
	victim, best := -1, co.cfg.Workers
	for r, b := range co.backlog {
		if r == thief {
			continue
		}
		if _, isDead := co.dead[r]; isDead {
			continue
		}
		if b > best {
			victim, best = r, b
		}
	}
	co.mu.Unlock()
	if victim >= 0 {
		co.tp.sendTo(victim, stealMsg{Thief: thief}.encode(msgStealProbe))
	}
}

// liveRanks returns the ranks not declared dead. Caller holds co.mu.
func (co *coordinator) liveRanksLocked() []int {
	live := make([]int, 0, co.cfg.Ranks)
	for r := 0; r < co.cfg.Ranks; r++ {
		if _, isDead := co.dead[r]; !isDead {
			live = append(live, r)
		}
	}
	return live
}

// checkDeaths declares ranks silent past the death timeout dead and
// broadcasts the takeover. The heir is the lowest live rank.
func (co *coordinator) checkDeaths() {
	if !co.cfg.Recover {
		return
	}
	now := time.Now()
	co.mu.Lock()
	var takeovers []takeoverMsg
	for r, seen := range co.lastSeen {
		if _, isDead := co.dead[r]; isDead {
			continue
		}
		if now.Sub(seen) < co.cfg.DeathTimeout {
			continue
		}
		heir := -1
		for _, l := range co.liveRanksLocked() {
			if l != r {
				heir = l
				break
			}
		}
		if heir < 0 {
			co.mu.Unlock()
			co.fail(fmt.Errorf("netrun: rank %d died with no live heir", r))
			return
		}
		co.dead[r] = heir
		takeovers = append(takeovers, takeoverMsg{Dead: r, Heir: heir})
	}
	live := co.liveRanksLocked()
	co.mu.Unlock()

	for _, t := range takeovers {
		// Stop our own traffic to the dead rank first (probes, flush);
		// coordinator channels retain no activations.
		co.tp.redirect(t.Dead, t.Heir)
		for _, r := range live {
			co.tp.sendTo(r, t.encode())
		}
	}
}

// wait drives the run to completion: registration barrier, welcome
// broadcast, the completion/death-detection loop, the flush barrier,
// energy extraction, shutdown, and report collection.
func (co *coordinator) wait() (*Result, error) {
	defer co.tp.close()
	deadline := time.After(co.cfg.Deadline)

	select {
	case <-co.allRegCh:
	case <-co.failCh:
		return nil, co.err()
	case <-deadline:
		return nil, fmt.Errorf("netrun: %d of %d ranks registered before deadline", co.nRegistered(), co.cfg.Ranks)
	}

	co.mu.Lock()
	welcome := welcomeMsg{Ranks: co.cfg.Ranks, Addrs: make([]string, co.cfg.Ranks)}
	for r, a := range co.addrs {
		welcome.Addrs[r] = a
	}
	now := time.Now()
	for r := 0; r < co.cfg.Ranks; r++ {
		co.lastSeen[r] = now // the clock starts at the go signal
	}
	co.mu.Unlock()
	for r := 0; r < co.cfg.Ranks; r++ {
		co.tp.sendTo(r, welcome.encode()) // one frame per channel: each stamps its own id
	}

	// Completion arrives as a wake from the msgDone handler; the ticker
	// only paces death detection.
	var deathTick <-chan time.Time
	if co.cfg.Recover {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		deathTick = tick.C
	}
	for co.nComplete() != co.spec.numInstances {
		select {
		case <-co.failCh:
			// As for cancellation below: the ranks that did not fail
			// must see the shutdown before the sockets close.
			co.awaitReports(co.shutdown())
			return nil, co.err()
		case <-co.cfg.Cancel:
			// Cancellation is honored only after the registration
			// barrier: every rank is connected, so the shutdown
			// broadcast reaches all of them and they halt between
			// tasks (a nil Cancel channel never fires). Waiting for
			// their reports keeps the sockets up until the shutdown
			// frames have been delivered and acted on; returning at
			// once would close the transport under them and leave
			// every rank idling to its own deadline.
			co.awaitReports(co.shutdown())
			return nil, ErrCanceled
		case <-deadline:
			co.shutdown()
			return nil, fmt.Errorf("netrun: deadline exceeded with %d/%d tasks complete", co.nComplete(), co.spec.numInstances)
		case <-deathTick:
			co.checkDeaths()
		case <-co.wake:
		}
	}

	// Flush barrier: every live rank confirms an empty unacked window
	// and reports how many distinct accumulations it sent; the fold
	// closes only when the post-apply receive count matches, so an acc
	// still inside a handler (a dying connection's last frame, say)
	// cannot race the energy read.
	co.mu.Lock()
	live := co.liveRanksLocked()
	co.mu.Unlock()
	for _, r := range live {
		co.tp.sendTo(r, newFrame(msgFlushReq, 0))
	}
	for {
		co.mu.Lock()
		acked := 0
		for _, r := range live {
			if sent, ok := co.flushAcks[r]; ok && co.accRecvd[r] >= sent {
				acked++
			}
		}
		co.mu.Unlock()
		if acked == len(live) {
			break
		}
		select {
		case <-co.failCh:
			co.awaitReports(co.shutdown())
			return nil, co.err()
		case <-deadline:
			co.shutdown()
			return nil, fmt.Errorf("netrun: flush barrier: %d/%d acks", acked, len(live))
		case <-co.wake:
		}
	}

	co.mu.Lock()
	co.accClosed = true // late zombie accumulations must not skew the fold
	co.mu.Unlock()

	res := &Result{
		Tasks:   co.spec.numInstances,
		Ranks:   co.cfg.Ranks,
		Elapsed: time.Since(co.start),
		graph:   co.spec.graph,
	}
	if co.spec.energy != nil {
		res.Energy = co.spec.energy(co.store)
		res.HasEnergy = true
	}

	co.shutdown()
	co.collectReports(live, res)
	co.mu.Lock()
	res.Takeovers = len(co.dead)
	co.mu.Unlock()
	return res, nil
}

// shutdown tells every live rank to stop and returns the ranks told.
func (co *coordinator) shutdown() []int {
	co.mu.Lock()
	live := co.liveRanksLocked()
	co.mu.Unlock()
	for _, r := range live {
		co.tp.sendTo(r, newFrame(msgShutdown, 0))
	}
	return live
}

// awaitReports waits briefly for each live rank's final self-report; a
// rank that dies during shutdown only costs its counters.
func (co *coordinator) awaitReports(live []int) {
	deadline := time.After(5 * time.Second)
	for waiting := true; waiting; {
		co.mu.Lock()
		n := len(co.reports)
		co.mu.Unlock()
		if n >= len(live) {
			break
		}
		select {
		case <-co.wake:
		case <-deadline:
			waiting = false
		}
	}
}

// collectReports folds the self-reports that arrived into the result.
func (co *coordinator) collectReports(live []int, res *Result) {
	co.awaitReports(live)
	for r := 0; r < co.cfg.Ranks; r++ {
		co.mu.Lock()
		rep, ok := co.reports[r]
		co.mu.Unlock()
		if ok {
			res.aggregate(rep)
		}
	}
}

func (co *coordinator) err() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.failure == nil {
		return fmt.Errorf("netrun: coordinator failed without recorded error")
	}
	return co.failure
}

func (co *coordinator) nComplete() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.ncomplete
}

func (co *coordinator) nRegistered() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return len(co.addrs)
}
