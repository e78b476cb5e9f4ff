// Command mpschedd is the multi-pattern scheduling compile daemon: an
// HTTP/JSON service that runs the full select → schedule flow of
// Guo/Hoede/Smit (IPPS 2006) for many concurrent clients, with an async
// job queue, a sharded result cache and Prometheus metrics.
//
// Usage:
//
//	mpschedd -addr :8080
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/compile -d '{"workload":"fft:8"}'
//	curl -s -X POST localhost:8080/v1/compile -d '{"workload":"3dft","stop_after":"select"}'
//
// Endpoints: POST /v1/compile, POST /v1/batch, POST /v1/jobs,
// GET /v1/jobs/{id}, GET /v1/workloads, GET /healthz, GET /metrics,
// GET /debug/traces and /debug/traces/{id} (recent request traces; see
// -trace-buffer and -slow-trace), and — only with -pprof —
// GET /debug/pprof/*. Requests may stop the staged
// compile partway (stop_after) or sweep span limits (spans); responses
// carry per-stage timings. Compile and batch bodies may be JSON or the
// compact binary framing (Content-Type/Accept negotiation); /v1/batch
// streams up to -max-batch results per envelope in completion order. See
// internal/server and internal/wire for the wire formats.
//
// With -store-dir the result cache gains a persistent disk tier: every
// full compile is also written to a fingerprint-addressed store in that
// directory, and a restarted daemon (same flags, same directory) serves
// its previous compiles as warm cache hits instead of recompiling.
// -store-max-bytes bounds the directory; oldest results are evicted
// first. /metrics exports per-tier mpschedd_store_* families.
//
// On SIGINT/SIGTERM the daemon stops accepting work, drains the job
// queue (bounded by -drain-timeout) and exits 0.
//
// For resilience testing, -chaos injects deterministic seeded faults
// (latency, 500s, 429s, truncated bodies, dropped connections) into the
// /v1 routes — see internal/faults for the spec grammar — and
// -shed-wait tunes the brownout load-shedding threshold.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"time"

	"mpsched/internal/cliutil"
	"mpsched/internal/faults"
	"mpsched/internal/pipeline"
	"mpsched/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the daemon body, factored out of main so tests can drive it.
// When ready is non-nil, the bound address is sent on it once the
// listener is up (tests use :0 and need the real port).
func run(argv []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("mpschedd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", 0, "async compile workers (0 = GOMAXPROCS)")
		queueDepth   = fs.Int("queue", server.DefaultQueueDepth, "async queue admission bound")
		cacheEntries = fs.Int("cache-entries", 0, "result cache capacity (0 = default, negative disables)")
		cacheShards  = fs.Int("cache-shards", 0, "result cache shards (0 = auto)")
		storeDir     = fs.String("store-dir", "", "persist compile results to this directory for warm restarts (empty = memory only)")
		storeMax     = fs.Int64("store-max-bytes", 0, "on-disk result store size bound in bytes (0 = default)")
		maxBody      = fs.Int64("max-body", server.DefaultMaxBodyBytes, "request body size limit in bytes")
		maxSync      = fs.Int("max-sync-nodes", server.DefaultMaxSyncNodes, "largest graph served synchronously on /v1/compile")
		maxBatch     = fs.Int("max-batch", server.DefaultMaxBatchJobs, "most jobs accepted per /v1/batch envelope")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for queued jobs")
		pprofOn      = fs.Bool("pprof", false, "expose /debug/pprof profiling endpoints (off by default)")
		slowTrace    = fs.Duration("slow-trace", server.DefaultSlowTrace, "log any request trace slower than this with its span breakdown (negative disables)")
		traceBuffer  = fs.Int("trace-buffer", server.DefaultTraceBuffer, "recent request traces kept for GET /debug/traces")
		chaos        = fs.String("chaos", "", "fault-injection spec for resilience testing, e.g. 'latency=5%,err=5%,drop=2%,seed=1' (see internal/faults)")
		shedWait     = fs.Duration("shed-wait", 0, "queue-wait p99 that triggers brownout load shedding (0 = default, negative disables)")
	)
	if code, done := cliutil.ParseFlags(fs, argv); done {
		return code
	}

	var injector *faults.Injector
	if *chaos != "" {
		cfg, err := faults.ParseSpec(*chaos)
		if err != nil {
			fmt.Fprintf(stderr, "mpschedd: -chaos: %v\n", err)
			return 2
		}
		injector = faults.New(cfg)
		fmt.Fprintf(stderr, "mpschedd: CHAOS MODE: injecting %s\n", cfg.String())
	}

	logger := log.New(stderr, "mpschedd: ", log.LstdFlags)
	// With -store-dir the result cache is a persistent tiered store: the
	// in-memory LRU in front of a fingerprint-addressed disk store, so a
	// restarted daemon serves its previous compiles as warm hits. The
	// daemon owns the store and closes it after the final drain.
	var resultStore pipeline.ResultCache
	if *storeDir != "" && *cacheEntries >= 0 {
		var err error
		resultStore, err = pipeline.NewTieredCache(*cacheEntries, *cacheShards, *storeDir, *storeMax, logger.Printf)
		if err != nil {
			fmt.Fprintf(stderr, "mpschedd: -store-dir: %v\n", err)
			return 2
		}
		defer func() {
			if err := resultStore.Close(); err != nil {
				logger.Printf("close store: %v", err)
			}
		}()
	}
	srv := server.New(server.Options{
		QueueWorkers:  *workers,
		QueueDepth:    *queueDepth,
		CacheEntries:  *cacheEntries,
		CacheShards:   *cacheShards,
		Cache:         resultStore,
		MaxBodyBytes:  *maxBody,
		MaxSyncNodes:  *maxSync,
		MaxBatchJobs:  *maxBatch,
		EnablePprof:   *pprofOn,
		SlowTrace:     *slowTrace,
		TraceBuffer:   *traceBuffer,
		Faults:        injector,
		ShedThreshold: *shedWait,
		Logger:        slog.New(slog.NewTextHandler(stderr, nil)),
	})

	return cliutil.Serve(*addr, srv, "mpschedd listening on %s", *drainTimeout, stdout, logger, ready, srv.Drain)
}
