package netrun

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"syscall"
	"time"

	"parsec/internal/ga"
	"parsec/internal/ptg"
	"parsec/internal/runtime"
	"parsec/internal/tce"
	"parsec/internal/tensor"
)

// coordSpec tells the coordinator what it serves and how the run ends.
type coordSpec struct {
	// numInstances is the graph's task count; the run terminates when
	// every sequence number has been reported completed.
	numInstances int
	// output, if non-nil, creates the job's output tensor on the GA
	// server's store (ccsd.CompiledPlan.CreateOutput): a counted array
	// whose blocks fold into the returned energy as their last
	// accumulation lands, on whichever connection goroutine delivers it.
	output func(st *ga.Store) *tce.EnergyFold
	// graph builds the job's graph once more, should the caller ask the
	// result for its profile (Result.Profile).
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
// termination bitset, death detector, and result assembly. A job ends
// when every instance has reported done and, for a job with an output,
// every counted block has folded: both counts are the plan's.
type coordinator struct {
	cfg   Config
	spec  coordSpec
	tp    *transport
	store *ga.Store
	// fold is the energy the output's blocks fold into; nil without an
	// output.
	fold *tce.EnergyFold

	mu        sync.Mutex
	addrs     map[int]string
	completed []bool
	ncomplete int
	lastSeen  map[int]time.Time
	dead      map[int]int // dead rank -> heir
	reports   map[int]RankReport
	gone      map[int]bool // ranks whose dial was refused: no report will come
	accSeen   map[accKey]bool
	accClosed bool
	doneSeqs  []int // the msgDone decode buffer, reused frame to frame
	failure   error

	allRegCh chan struct{}
	regOnce  sync.Once
	failCh   chan struct{}
	failOnce sync.Once
	// wake is posted whenever a handler changed something wait may be
	// blocked on: a completion, an accumulation applied, a rank report, a
	// rank gone.
	wake wakeup

	start time.Time
}

// startCoordinator opens the coordinator endpoint. Workers are started
// by the caller and told this address.
func startCoordinator(cfg Config, spec coordSpec) (*coordinator, error) {
	// The coordinator's own outbound links are never severed; a rank's
	// link to it can be (SeverSpec), and the rank's redial resends.
	tp, err := newTransport(coordRank, nil)
	if err != nil {
		return nil, err
	}
	tp.recoverDeadPeers = cfg.Recover
	co := &coordinator{
		cfg:       cfg,
		spec:      spec,
		tp:        tp,
		store:     ga.NewStore(cfg.Ranks),
		addrs:     make(map[int]string),
		completed: make([]bool, spec.numInstances),
		lastSeen:  make(map[int]time.Time),
		dead:      make(map[int]int),
		reports:   make(map[int]RankReport),
		gone:      make(map[int]bool),
		accSeen:   make(map[accKey]bool),
		allRegCh:  make(chan struct{}),
		failCh:    make(chan struct{}),
		wake:      make(wakeup, 1),
		start:     time.Now(),
	}
	if spec.output != nil {
		co.fold = spec.output(co.store)
	}
	tp.fail, tp.gone, tp.onClose = co.fail, co.noteGone, co.probe
	tp.serve(co.handle, co.noteSeen)
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

// noteGone records a rank whose dial was refused, so awaitReports does
// not wait for its report.
func (co *coordinator) noteGone(r int) {
	co.mu.Lock()
	co.gone[r] = true
	co.mu.Unlock()
	co.wake.post()
}

// probe runs when a rank's inbound connection closes before the rank
// has reported: it dials the rank's listener. A refused dial means the
// rank's process is gone. Its channels would learn that only by a
// redial, and they redial only while they owe the rank frames, so
// without this a run whose Recover is off would wait for the dead
// rank's work until its deadline. The rank is noted gone, with Recover
// or without, and without Recover the run fails. A dial that connects
// finds the rank alive (its link was only cut) unless the connection is
// reset or closed at once (resetSoon): then the rank's process is being
// killed, and the probe dials again.
func (co *coordinator) probe(r int) {
	co.mu.Lock()
	addr, registered := co.addrs[r]
	_, reported := co.reports[r]
	co.mu.Unlock()
	if !registered || reported {
		return
	}
	for dials := 0; dials < 3; dials++ {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if errors.Is(err, syscall.ECONNREFUSED) {
			co.noteGone(r)
			if !co.cfg.Recover {
				co.fail(fmt.Errorf("netrun: coordinator: %s %s is gone: %w", rankName(r), addr, err))
			}
			return
		}
		if err != nil || !resetSoon(conn) {
			return
		}
	}
}

// probeWait is how long a probe's connection must stay quiet for the
// rank to count as alive.
const probeWait = 4 * heartbeat

// resetSoon reports whether conn, a probe's connection to a rank's
// listener, is reset or closed within probeWait, and closes it. A
// killed process closes its sockets one by one, so its listener may
// still complete the probe's handshake after the connection that
// started the probe has closed; closing the listener then resets the
// connections it never accepted, within a few milliseconds of the kill
// (TestKilledRankFailsRunWithoutRecover). A live rank waits for a hello
// on the connection and sends nothing.
func resetSoon(conn net.Conn) bool {
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(probeWait))
	_, err := conn.Read(make([]byte, 1))
	var ne net.Error
	return err != nil && !(errors.As(err, &ne) && ne.Timeout())
}

// noteSeen timestamps any inbound frame from a rank — the liveness
// signal death detection reads. A sender that is no rank of this run is
// not tracked: declaring it dead would broadcast a takeover of nothing.
func (co *coordinator) noteSeen(from int) {
	if from < 0 || from >= co.cfg.Ranks {
		return
	}
	co.mu.Lock()
	if _, isDead := co.dead[from]; !isDead {
		co.lastSeen[from] = time.Now()
	}
	co.mu.Unlock()
}

// handle dispatches one deduplicated inbound frame. It runs on the
// sender's connection goroutine, so work per frame stays short.
func (co *coordinator) handle(from int, f frame) {
	switch f.typ {
	case msgRegister:
		m, err := decodeRegister(f.body)
		if err == nil {
			err = co.register(m)
		}
		if err != nil {
			co.fail(err)
		}
	case msgDone:
		co.mu.Lock()
		m, err := decodeDone(f.body, co.doneSeqs)
		if err != nil {
			co.mu.Unlock()
			co.fail(err)
			return
		}
		co.doneSeqs = m.Seqs
		for _, s := range m.Seqs {
			if s >= 0 && s < len(co.completed) && !co.completed[s] {
				co.completed[s] = true
				co.ncomplete++
			}
		}
		co.mu.Unlock()
		co.wake.post()
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
		// The tile is pooled (decodeAccOrdered): the store gives it back
		// once its block is folded, and a replay goes back here.
		if !apply {
			tensor.PutTile4(m.Tile)
		} else if err := co.store.AccOrdered(m.Name, m.Key, m.Tile, m.Scale, m.Tag, m.Lo, m.Hi); err != nil {
			co.fail(err)
		}
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

// register records a rank's listen address; the last rank to register
// opens the barrier. The rank id comes off the wire, so it is checked
// before anything is indexed by it: a rank outside the run, or one
// registering twice, fails the run.
func (co *coordinator) register(m registerMsg) error {
	if m.Rank < 0 || m.Rank >= co.cfg.Ranks {
		return fmt.Errorf("netrun: register of rank %d in a %d-rank run", m.Rank, co.cfg.Ranks)
	}
	// The channel exists before the rank counts, so the welcome finds it
	// (connect keeps the first channel on a repeat).
	co.tp.connect(m.Rank, m.Addr)
	co.mu.Lock()
	_, dup := co.addrs[m.Rank]
	if !dup {
		co.addrs[m.Rank] = m.Addr
		co.lastSeen[m.Rank] = time.Now()
	}
	n := len(co.addrs)
	co.mu.Unlock()
	if dup {
		return fmt.Errorf("netrun: rank %d registered twice", m.Rank)
	}
	if n == co.cfg.Ranks {
		co.regOnce.Do(func() { close(co.allRegCh) })
	}
	return nil
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
		if now.Sub(seen) < deathTimeout {
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
		// Stop our own traffic to the dead rank first; coordinator
		// channels retain no activations.
		co.tp.redirect(t.Dead, t.Heir)
		for _, r := range live {
			co.tp.sendTo(r, t.encode())
		}
	}
}

// wait drives the run to completion: registration barrier, welcome
// broadcast, the completion/death-detection loop, reading the energy
// folded while the run went on, shutdown, and report collection.
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

	// Completion arrives as a wake from the msgDone and msgAccOrdered
	// handlers; the ticker only paces death detection. Both counts must
	// be full: a done batch can overtake an accumulation that a redial
	// resends, and a block can fold before the done batch of its WRITE.
	var deathTick <-chan time.Time
	if co.cfg.Recover {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		deathTick = tick.C
	}
	for co.nComplete() != co.spec.numInstances || co.fold != nil && !co.fold.Done() {
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
			return nil, runtime.ErrCanceled
		case <-deadline:
			co.shutdown()
			return nil, fmt.Errorf("netrun: deadline exceeded with %d/%d tasks complete", co.nComplete(), co.spec.numInstances)
		case <-deathTick:
			co.checkDeaths()
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
	if co.fold != nil { // every block has folded, so Energy cannot fail
		res.Energy, _ = co.fold.Energy()
		res.HasEnergy = true
	}

	co.collectReports(co.shutdown(), res)
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

// reportWait bounds awaitReports' wait for the live ranks' reports.
const reportWait = 5 * time.Second

// awaitReports waits briefly for each live rank's final self-report; a
// rank that dies during shutdown only costs its counters. A rank whose
// dial was refused is gone and is not waited for.
func (co *coordinator) awaitReports(live []int) {
	deadline := time.After(reportWait)
	for {
		co.mu.Lock()
		answered := 0
		for _, r := range live {
			if _, ok := co.reports[r]; ok || co.gone[r] {
				answered++
			}
		}
		co.mu.Unlock()
		if answered == len(live) {
			return
		}
		select {
		case <-co.wake:
		case <-deadline:
			return
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
