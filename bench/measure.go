package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// tailLadder lists the percentiles the tail rule chooses from.
var tailLadder = []float64{75, 90, 95, 99, 99.9, 99.99}

// tailPercentile applies the reporting rule for a timing's tail: the
// highest percentile of the ladder that still has at least ten of the n
// samples beyond it. ok is false when even the lowest rung does not
// (n < 40), in which case only the median is reported.
func tailPercentile(n int) (pct float64, ok bool) {
	for _, p := range tailLadder {
		if beyond(n, p) >= 10 {
			pct, ok = p, true
		}
	}
	return pct, ok
}

// beyond returns how many of n sorted samples lie strictly above the
// p-th percentile's position.
func beyond(n int, p float64) int {
	return n - 1 - percentileIndex(n, p)
}

// percentileIndex is the nearest-rank index of the p-th percentile in a
// sorted sample of size n.
func percentileIndex(n int, p float64) int {
	// The tolerance keeps 99.9 % of 10,000 at rank 9,990 although the
	// product is 9990.000000000002 in floating point.
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	return min(max(i, 0), n-1)
}

// percentile returns the nearest-rank p-th percentile of xs (unsorted);
// 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[percentileIndex(len(s), p)]
}

// median returns the middle value of xs, averaging the two middle
// values of an even-sized sample (the same rule as Python's
// statistics.median, which the driver applies to runs).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs; 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartileSpread is the acceptance statistic of the benchmark contract:
// the distance between the first and third quartile of xs — computed as
// Python's statistics.quantiles(xs, n=4) does (exclusive method) — as a
// share of the median.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// readCPU returns the user+sys CPU seconds this process has used
// (getrusage(RUSAGE_SELF)).
func readCPU() float64 {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procCounters is one reading of the allocation counters the
// end-to-end metrics are deltas of.
type procCounters struct {
	wall       time.Time
	mallocs    uint64 // runtime.MemStats.Mallocs
	allocBytes uint64 // runtime.MemStats.TotalAlloc
}

// readCounters snapshots the counters. ReadMemStats stops the world, so
// it is called only at the edges of a timed region, never inside it.
func readCounters() procCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{wall: time.Now(), mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
}

// rssSampler records the process's resident set every rssInterval while
// a timed region runs. The high-water mark (VmHWM) is an extreme value —
// whether two garbage-collection cycles happened to coincide with an
// allocation burst — and differs by half between identical runs, and
// even the 95th percentile of the samples differs by a quarter on the
// simulator workload; their median repeats to a few percent, and moves
// with them when a change holds more memory.
type rssSampler struct {
	statm   *os.File
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB
	err     error
}

const rssInterval = 10 * time.Millisecond

// startRSSSampler begins sampling; stopAndRead ends it.
func startRSSSampler() (*rssSampler, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, fmt.Errorf("rss sampler: %w", err)
	}
	r := &rssSampler{statm: f, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				mb, err := r.read()
				if err != nil {
					r.err = err
					return
				}
				r.samples = append(r.samples, mb)
			}
		}
	}()
	return r, nil
}

// read returns the resident set now: the second field of statm, pages.
func (r *rssSampler) read() (float64, error) {
	var buf [128]byte
	n, err := r.statm.ReadAt(buf[:], 0)
	if n == 0 && err != nil {
		return 0, fmt.Errorf("rss sampler: %w", err)
	}
	fields := strings.Fields(string(buf[:n]))
	if len(fields) < 2 {
		return 0, fmt.Errorf("rss sampler: statm reads %q", buf[:n])
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, fmt.Errorf("rss sampler: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// stopAndRead stops the sampler and returns its samples, with one taken
// now so that even the shortest region has one.
func (r *rssSampler) stopAndRead() ([]float64, error) {
	close(r.stop)
	<-r.done
	defer r.statm.Close()
	if r.err != nil {
		return nil, r.err
	}
	mb, err := r.read()
	if err != nil {
		return nil, err
	}
	return append(r.samples, mb), nil
}

// quietProbe detects when the machine's memory system is disturbed from
// outside the benchmark. It reads one byte of every cache line of 64 MB
// of address space that was never written: the kernel backs all 16,384
// pages with its one shared zero page, so the walk costs no resident
// memory and every load hits the L1 cache — what it times is a TLB miss
// per page, serialized by the loads between them. The page-table loads
// stay cached on an undisturbed machine and go to memory when another
// tenant of the host is evicting this VM's lines. On the baseline box
// the walk takes 0.7–1.0 ms undisturbed and 2–3 ms disturbed, for
// seconds at a time, and the job times of every workload follow it (see
// README.md, "Steadiness").
type quietProbe struct{ mem []byte }

const (
	probePages = 16384
	probePage  = 4096
	probeLine  = 64
)

func newQuietProbe() (*quietProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probePages*probePage, syscall.PROT_READ, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("quiet probe: mmap: %w", err)
	}
	// Huge zero pages would turn 16k TLB misses into 32. The advice is a
	// hint: a kernel that refuses it leaves a probe that discriminates
	// less, which is no reason to fail a run.
	_ = syscall.Madvise(mem, syscall.MADV_NOHUGEPAGE)
	p := &quietProbe{mem: mem}
	p.walk() // fault the mappings in
	return p, nil
}

func (p *quietProbe) close() { syscall.Munmap(p.mem) }

var probeSink byte

// walk reads one byte of every line and returns the seconds it took.
func (p *quietProbe) walk() float64 {
	t0 := time.Now()
	var sum byte
	for i := 0; i < len(p.mem); i += probeLine {
		sum += p.mem[i]
	}
	probeSink = sum
	return time.Since(t0).Seconds()
}

// quietFactor is how much slower than the fastest walk of a run a walk
// may be for the machine to still count as undisturbed.
const quietFactor = 1.5

// roundSlice is how long the clients of a closed loop run between two
// walks of the quiet probe. Disturbances last seconds, so a quarter of a
// second brackets them well; a job longer than the slice is a round of
// its own.
const roundSlice = 250 * time.Millisecond

// sample is one job of a closed loop as its client saw it.
type sample struct {
	job     int // index in the seeded job sequence
	seconds float64
	tasks   int
	traced  bool
	err     error
}

// round is one slice of a closed loop: the jobs the clients completed
// between two walks of the quiet probe, and what they cost.
type round struct {
	samples             []sample
	wall, cpu           float64 // seconds
	walkBefore, walkEnd float64 // quiet-probe walks bracketing the round
}

// loopStats is the outcome of one closed-loop timed region.
type loopStats struct {
	rounds     []round
	minWalk    float64   // fastest quiet-probe walk of the region
	wall       float64   // seconds, whole region
	rss        []float64 // resident set in MB, sampled every rssInterval
	mallocs    uint64
	allocBytes uint64
}

// walk is the slower of the two quiet-probe walks bracketing r.
func (r round) walk() float64 { return max(r.walkBefore, r.walkEnd) }

// quietRounds returns the rounds the time metrics are computed from:
// those with the machine undisturbed on both sides, and never fewer than
// the quietest quarter of the region's rounds. A machine disturbed from
// the first round to the last but for one walk would otherwise leave
// nothing to measure; the benchmark reports what it saw instead of
// failing, and prints how many rounds it kept.
func (ls loopStats) quietRounds() []round {
	limit := quietFactor * ls.minWalk
	if n := len(ls.rounds); n > 0 {
		walks := make([]float64, n)
		for i, r := range ls.rounds {
			walks[i] = r.walk()
		}
		sort.Float64s(walks)
		limit = max(limit, walks[(n-1)/4])
	}
	var out []round
	for _, r := range ls.rounds {
		if r.walk() <= limit {
			out = append(out, r)
		}
	}
	return out
}

// latencies returns the wall times of the successful jobs of one kind
// (traced or untraced) in the given rounds.
func latencies(rounds []round, traced bool) []float64 {
	var out []float64
	for _, r := range rounds {
		for _, s := range r.samples {
			if s.err == nil && s.traced == traced {
				out = append(out, s.seconds)
			}
		}
	}
	return out
}

// counts returns jobs attempted, jobs failed, and task instances
// executed by the successful ones, over the given rounds.
func counts(rounds []round) (attempted, failed, tasks int) {
	for _, r := range rounds {
		for _, s := range r.samples {
			attempted++
			if s.err != nil {
				failed++
				continue
			}
			tasks += s.tasks
		}
	}
	return attempted, failed, tasks
}

// runLoop drives inst in a closed loop for budget — until at least
// minJobs were started, and no further than maxJobs if that is not 0:
// each of clients goroutines submits its next job
// only after its previous one completed. The loop runs in rounds of
// slice (every client runs at least one job per round), the quiet probe
// walking between them, so that each job's
// time can be kept or set aside by the state of the machine around it.
// Job indices come from one counter, so the input sequence is a
// function of the seed alone, not of timing. With a tracer, odd-numbered
// jobs run traced and even-numbered ones untraced: interleaving the two
// kinds cancels machine drift out of their ratio.
func runLoop(inst instance, clients int, budget, slice time.Duration, minJobs, maxJobs int, tr *tracer, probe *quietProbe) (loopStats, error) {
	var next atomic.Int64
	sampler, err := startRSSSampler()
	if err != nil {
		return loopStats{}, err
	}
	before := readCounters()
	deadline := before.wall.Add(budget)
	ls := loopStats{minWalk: probe.walk()}
	walk := ls.minWalk
	capped := func(i int) bool { return maxJobs > 0 && i >= maxJobs }
	for n := int(next.Load()); !capped(n) && (n < minJobs || time.Now().Before(deadline)); n = int(next.Load()) {
		r := round{walkBefore: walk}
		start := readCPU()
		t0 := time.Now()
		sliceEnd := t0.Add(slice)
		var (
			mu sync.Mutex
			wg sync.WaitGroup
		)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(client int) {
				defer wg.Done()
				for first := true; first || time.Now().Before(sliceEnd); first = false {
					i := int(next.Add(1) - 1)
					if capped(i) {
						return
					}
					var jt *tracer
					if tr != nil && i%2 == 1 {
						jt = tr
					}
					j0 := time.Now()
					tasks, err := inst.job(i, client, jt)
					s := sample{job: i, seconds: time.Since(j0).Seconds(), tasks: tasks, traced: jt != nil, err: err}
					mu.Lock()
					r.samples = append(r.samples, s)
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		r.wall = time.Since(t0).Seconds()
		r.cpu = readCPU() - start
		walk = probe.walk()
		r.walkEnd = walk
		ls.minWalk = min(ls.minWalk, walk)
		ls.rounds = append(ls.rounds, r)
	}
	after := readCounters()
	ls.wall = after.wall.Sub(before.wall).Seconds()
	ls.mallocs = after.mallocs - before.mallocs
	ls.allocBytes = after.allocBytes - before.allocBytes
	ls.rss, err = sampler.stopAndRead()
	return ls, err
}
