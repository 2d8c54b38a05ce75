// Command ccsimd is the long-running CCSD service: a persistent HTTP
// server that accepts concurrent CCSD jobs, multiplexes them over a
// bounded executor pool, and caches compiled plans by content key so
// repeat submissions skip inspection and planning entirely (see
// internal/serve and docs/SERVICE.md).
//
// Usage:
//
//	ccsimd [-addr host:port] [-max-concurrent N] [-queue-depth N]
//	       [-cache-cap N] [-workers N] [-retry-after D]
//	       [-data DIR] [-mem-budget BYTES]
//	       [-netrun-bytes BYTES] [-netrun-ranks N] [-netrun-procs]
//	ccsimd -smoke
//	ccsimd -recovery-smoke
//
// With -data the daemon journals every job transition to
// DIR/jobs.journal and replays it on startup: terminal results are
// restored verbatim and interrupted jobs re-execute (to bitwise-
// identical energies — plans are pure and GA accumulation is ordered).
// -mem-budget switches admission from job counting to tensor-footprint
// accounting, and -netrun-bytes dispatches jobs at or above that
// footprint onto the netrun multi-process backend.
//
// Without -smoke the server runs until SIGINT/SIGTERM, then drains
// in-flight jobs before exiting. With -smoke it starts an in-process
// server on a loopback port, drives the CI acceptance scenario against
// the real HTTP surface (cold benzene job, identical cached job,
// canceled job, queue-full 429, drained shutdown), prints the outcome,
// and exits non-zero on any failure. With -recovery-smoke it drives the
// restart-recovery scenario instead: a child ccsimd with a journal is
// SIGKILLed mid-queue and restarted, and recovered results must be
// bitwise identical.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parsec/internal/netrun"
	"parsec/internal/serve"
)

// The daemon's connection deadlines. Every handler answers from memory
// without waiting on a job (clients poll), so none of them is near a
// bound a legitimate request meets.
const (
	// readHeaderTimeout bounds how long a connection may take to send
	// its request headers, so a client that opens sockets and trickles
	// bytes cannot pin them forever.
	readHeaderTimeout = 10 * time.Second
	// readTimeout bounds reading a whole request, body included: a
	// submit body is capped at 1 MiB, and one sent a byte at a time
	// would otherwise hold its connection and goroutine indefinitely.
	readTimeout = 30 * time.Second
	// writeTimeout bounds writing a response, against a client that
	// stops reading.
	writeTimeout = 30 * time.Second
	// idleTimeout closes a keep-alive connection that sends no next
	// request; at zero Go would fall back to readTimeout.
	idleTimeout = 2 * time.Minute
)

// newHTTPServer is the daemon's HTTP server: the service's handler on
// addr behind the connection deadlines above.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	// A process launched as a netrun worker rank runs that rank and
	// exits here: this is what lets the daemon place large jobs across
	// real OS processes by re-executing its own binary.
	netrun.MaybeWorkerMain()

	addr := flag.String("addr", "127.0.0.1:8651", "listen address")
	maxConc := flag.Int("max-concurrent", 2, "jobs executing simultaneously")
	queueDepth := flag.Int("queue-depth", 16, "admitted jobs waiting for an executor before 429")
	cacheCap := flag.Int("cache-cap", 32, "plan cache capacity (entries)")
	workers := flag.Int("workers", 1, "default runtime workers per job")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on 429 rejections")
	dataDir := flag.String("data", "", "journal directory; empty keeps job records in memory only")
	memBudget := flag.Int64("mem-budget", 0, "tensor-footprint admission budget in bytes (0 = job-count gating only)")
	netrunBytes := flag.Int64("netrun-bytes", 0, "dispatch jobs with footprint >= this onto the netrun backend (0 = always in-process)")
	netrunRanks := flag.Int("netrun-ranks", 2, "worker ranks for netrun-dispatched jobs")
	netrunProcs := flag.Bool("netrun-procs", true, "netrun ranks as real OS processes (false: in-process ranks over sockets)")
	smoke := flag.Bool("smoke", false, "run the service smoke scenario and exit")
	recovery := flag.Bool("recovery-smoke", false, "run the restart-recovery smoke scenario and exit")
	flag.Parse()

	cfg := serve.Config{
		MaxConcurrent:  *maxConc,
		QueueDepth:     *queueDepth,
		CacheCap:       *cacheCap,
		DefaultWorkers: *workers,
		RetryAfter:     *retryAfter,
		DataDir:        *dataDir,
		MemBudget:      *memBudget,
		NetrunBytes:    *netrunBytes,
		NetrunRanks:    *netrunRanks,
		NetrunProcs:    *netrunProcs,
	}

	if *smoke {
		if err := runSmoke(); err != nil {
			fmt.Fprintf(os.Stderr, "ccsimd: smoke FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("ccsimd: smoke ok")
		return
	}
	if *recovery {
		if err := runRecoverySmoke(); err != nil {
			fmt.Fprintf(os.Stderr, "ccsimd: recovery smoke FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("ccsimd: recovery smoke ok")
		return
	}

	s, err := serve.Open(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccsimd: %v\n", err)
		os.Exit(1)
	}
	httpSrv := newHTTPServer(*addr, s.Handler())

	done := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		fmt.Printf("ccsimd: %v — draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
		s.Shutdown()
		close(done)
	}()

	ec := s.Config()
	fmt.Printf("ccsimd: listening on %s (executors %d, queue %d, cache %d plans, %d workers/job",
		*addr, ec.MaxConcurrent, ec.QueueDepth, ec.CacheCap, ec.DefaultWorkers)
	if ec.DataDir != "" {
		fmt.Printf(", journal %s", ec.DataDir)
	}
	if ec.MemBudget > 0 {
		fmt.Printf(", mem budget %d MB", ec.MemBudget>>20)
	}
	if ec.NetrunBytes > 0 {
		fmt.Printf(", netrun >= %d KB x%d ranks", ec.NetrunBytes>>10, ec.NetrunRanks)
	}
	fmt.Println(")")
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "ccsimd: %v\n", err)
		os.Exit(1)
	}
	<-done
	fmt.Println("ccsimd: drained, bye")
}
