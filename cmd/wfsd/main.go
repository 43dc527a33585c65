// Command wfsd serves the WFS engine over HTTP/JSON: named sessions of
// loaded guarded normal Datalog± programs, incremental fact assertion,
// NBCQ answering with adaptive deepening, non-Boolean selection,
// ground-atom truth and proofs, and engine statistics — with bounded
// request concurrency in front. Every read is computed on the session's
// current immutable snapshot, which builds each model at most once.
//
// Usage:
//
//	wfsd [-addr :8080] [-max-sessions N] [-max-concurrent N]
//	     [-max-queue-wait 5s] [-slow-query 0]
//	     [-query-timeout 0] [-access-log] [-pprof-addr :6060]
//	     [-trace-buffer N] [-data-dir DIR] [-checkpoint-bytes B]
//	     [-fsync=true] [-wal-breaker-threshold 3] [-wal-probe-interval 2s]
//	     [-preload prog.dl [-preload-name default]]
//
// Resource governance: -query-timeout bounds every query and select
// evaluation with a server-side deadline — a query still running when it
// expires is cooperatively cancelled (504; or, with ?partial=1, degraded
// to the deepest completed approximation's answer marked inexact), and a
// client that disconnects mid-evaluation cancels its work the same way
// (503). With durability on, -wal-breaker-threshold consecutive failed
// log appends trip a session into read-only mode: mutations answer 503
// while reads keep serving, and a background probe every
// -wal-probe-interval re-enables writes once the disk heals.
//
// Durability: -data-dir enables a per-session write-ahead log of
// mutation deltas plus periodic snapshot checkpoints under DIR. Every
// mutation is serialized (and, with -fsync, synced) to disk before it
// commits, sessions persisted by a previous process are recovered at
// startup — a SIGKILLed server restarts to the exact pre-crash epoch,
// with torn final records dropped — and graceful shutdown writes final
// checkpoints so a clean restart replays zero records.
// -checkpoint-bytes bounds the replay tail in bytes of log.
//
// Observability: GET /metrics serves Prometheus text metrics,
// ?trace=1 on the query endpoint returns a per-phase evaluation trace,
// -slow-query logs queries over the threshold with their phase
// breakdown, and -pprof-addr serves net/http/pprof on a separate
// listener (off by default; keep it private). Every request carries a
// W3C traceparent identity (continued from the caller's header or
// minted); completed requests feed an in-memory flight recorder of
// -trace-buffer entries with tail-based sampling (errors, slow queries,
// and ?trace=1 requests are always kept), browsable at GET /v1/traces
// and GET /v1/traces/{id}.
//
// Scheduling: wfsd runs with at least two Go Ps (GOMAXPROCS 2) even on
// one CPU, so that a reader's socket is polled while a CPU-bound
// mutation runs; a GOMAXPROCS set in the environment is left as it is.
// The solver's worker pool stays sized to the CPUs, not to the Ps.
//
// Endpoints are listed in the package documentation of internal/server
// and in README.md. SIGINT/SIGTERM trigger a graceful drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers on DefaultServeMux, served only via -pprof-addr
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	wfs "repro"
	"repro/internal/server"
	"repro/internal/wal"
)

// minProcs is the number of Ps wfsd keeps by default. With one P, a
// CPU-bound writer holds it until the scheduler preempts it (~10 ms), and
// a reader's request waits that long to be noticed; a second P parks its
// thread in the network poller and picks the reader up at once.
const minProcs = 2

// serverProcs returns the GOMAXPROCS wfsd runs with, given the
// environment's GOMAXPROCS value and the runtime's current setting. A
// value the runtime honours wins; otherwise the runtime's choice is
// raised to minProcs. The runtime honours what it parses as it does
// here: decimal digits without a sign, positive, within an int32.
func serverProcs(env string, current int) int {
	if n, err := strconv.ParseUint(env, 10, 31); err == nil && n > 0 {
		return current
	}
	return max(current, minProcs)
}

func main() {
	runtime.GOMAXPROCS(serverProcs(os.Getenv("GOMAXPROCS"), runtime.GOMAXPROCS(0)))
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		maxSessions   = flag.Int("max-sessions", server.DefaultMaxSessions, "max live sessions (-1 = unlimited)")
		maxConcurrent = flag.Int("max-concurrent", server.DefaultMaxConcurrent, "max in-flight requests (-1 = unlimited)")
		maxQueueWait  = flag.Duration("max-queue-wait", server.DefaultMaxQueueWait, "max wait for a concurrency slot before 429 (-1s = unbounded)")
		slowQuery     = flag.Duration("slow-query", 0, "log queries slower than this with phase breakdown (0 = off)")
		queryTimeout  = flag.Duration("query-timeout", 0, "server-side deadline per query evaluation: 504 on expiry, or a degraded answer with ?partial=1 (0 = off)")
		accessLog     = flag.Bool("access-log", false, "log one structured line per request (includes trace_id)")
		traceBuffer   = flag.Int("trace-buffer", server.DefaultTraceBufferSize, "flight-recorder capacity in retained request traces (-1 = disabled)")
		pprofAddr     = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
		preload       = flag.String("preload", "", "program file to load at startup")
		preloadName   = flag.String("preload-name", "default", "session name for -preload")
		drainTimeout  = flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown deadline")
		dataDir       = flag.String("data-dir", "", "enable durability: write-ahead log + checkpoints under this directory (empty = in-memory only)")
		ckptBytes     = flag.Int64("checkpoint-bytes", wal.DefaultCheckpointBytes, "checkpoint a session after this many logged bytes (-1 = only at shutdown)")
		fsync         = flag.Bool("fsync", true, "fsync the write-ahead log on every mutation (durable against power loss, not just crashes)")
		walBreaker    = flag.Int("wal-breaker-threshold", server.DefaultWALFailureThreshold, "consecutive WAL append failures before a session goes read-only (-1 = never)")
		walProbe      = flag.Duration("wal-probe-interval", server.DefaultWALProbeInterval, "how often a read-only session probes its log directory for healing")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "wfsd: ", log.LstdFlags)

	cfg := server.Config{
		MaxSessions:         *maxSessions,
		MaxConcurrent:       *maxConcurrent,
		MaxQueueWait:        *maxQueueWait,
		SlowQueryThreshold:  *slowQuery,
		QueryTimeout:        *queryTimeout,
		TraceBufferSize:     *traceBuffer,
		WALFailureThreshold: *walBreaker,
		WALProbeInterval:    *walProbe,
		Logger:              logger,
	}
	if *accessLog {
		cfg.AccessLogger = log.New(os.Stderr, "wfsd.access: ", log.LstdFlags)
	}
	srv := server.New(cfg)
	if *dataDir != "" {
		st, err := srv.OpenWAL(*dataDir, wal.Options{
			Fsync:           *fsync,
			CheckpointBytes: *ckptBytes,
		})
		if err != nil {
			logger.Fatalf("wal: %v", err)
		}
		logger.Printf("wal: data-dir=%s fsync=%v — recovered %d sessions (%d records replayed, %d torn tails repaired, %d skipped) in %s",
			*dataDir, *fsync, st.Sessions, st.ReplayedRecords, st.TornTails, st.Skipped, st.Duration.Round(time.Millisecond))
	}
	if *preload != "" {
		src, err := os.ReadFile(*preload)
		if err != nil {
			logger.Fatalf("preload: %v", err)
		}
		var exists *server.ErrSessionExists
		if _, err := srv.Registry().Create(*preloadName, string(src), wfs.Options{}); errors.As(err, &exists) && *dataDir != "" {
			// Recovery already rebuilt this session from its log; the
			// durable state (including mutations since the original
			// preload) wins over re-loading the file.
			logger.Printf("preload: session %q recovered from data dir, keeping recovered state", *preloadName)
		} else if err != nil {
			logger.Fatalf("preload %s: %v", *preload, err)
		} else {
			logger.Printf("preloaded %s as session %q", *preload, *preloadName)
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *pprofAddr != "" {
		// The blank pprof import registered its handlers on
		// http.DefaultServeMux; serving that mux on a second, private
		// listener keeps profiling off the public API surface.
		go func() {
			logger.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Printf("pprof: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		logger.Fatalf("serve: %v", err)
	case <-ctx.Done():
		stop()
		logger.Printf("shutting down (waiting up to %s for in-flight requests)", *drainTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Printf("shutdown: %v", err)
			os.Exit(1)
		}
		// After the drain: final checkpoints + fsync so a clean restart
		// replays zero records.
		if err := srv.Close(); err != nil {
			logger.Printf("shutdown: wal: %v", err)
			os.Exit(1)
		}
		if *dataDir != "" {
			logger.Printf("wal: final checkpoints written")
		}
		fmt.Fprintln(os.Stderr, "wfsd: bye")
	}
}
