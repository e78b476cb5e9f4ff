// Command mpschedrouter is the fleet front end for mpschedd: an HTTP
// daemon speaking the same /v1 wire (both codecs, batch envelopes
// included) that consistent-hashes each compile across a pool of
// backend daemons by its graph fingerprint plus its name, workload spec
// and compile parameters, so identical requests always land on the same
// node and every backend's result cache stays hot.
//
// Usage:
//
//	mpschedd -addr :8081 & mpschedd -addr :8082 &
//	mpschedrouter -addr :8080 -backends http://localhost:8081,http://localhost:8082
//	curl -s -X POST localhost:8080/v1/compile -d '{"workload":"fft:8"}'
//
// Backends are health-checked (-probe-interval): a dead or draining
// node leaves the hash ring within a couple of probes and its keys fail
// over to the next ring replica, which compiles them. The router keeps
// no results of its own; with every replica down it answers 503 with
// Retry-After. Traces (X-Mpsched-Trace) and deadlines
// (X-Mpsched-Deadline, decremented by router time) propagate through
// the hop; GET /debug/traces shows each request's "hop" spans, and GET
// /metrics exposes the mpschedrouter_* surface (per-backend
// up/forwarded/rerouted/errors, ring rebalances).
//
// On SIGINT/SIGTERM the router stops accepting connections, lets
// in-flight forwards finish (bounded by -drain-timeout) and exits 0.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"strings"
	"time"

	"mpsched/internal/cliutil"
	"mpsched/internal/fleet"
	"mpsched/internal/server"
	"mpsched/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the daemon body, factored out of main so tests can drive it.
// When ready is non-nil, the bound address is sent on it once the
// listener is up.
func run(argv []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("mpschedrouter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr          = fs.String("addr", ":8080", "listen address")
		backends      = fs.String("backends", "", "comma-separated backend base URLs (required), e.g. http://localhost:8081,http://localhost:8082")
		forwardCodec  = fs.String("forward-codec", "binary", "codec of the router-to-backend leg: json or binary")
		vnodes        = fs.Int("vnodes", fleet.DefaultVNodes, "virtual nodes per backend on the hash ring")
		probeInterval = fs.Duration("probe-interval", fleet.DefaultProbeInterval, "backend /healthz poll period")
		probeTimeout  = fs.Duration("probe-timeout", fleet.DefaultProbeTimeout, "timeout of one health probe")
		failAfter     = fs.Int("fail-after", fleet.DefaultFailAfter, "consecutive failures that demote a backend")
		fwdTimeout    = fs.Duration("forward-timeout", fleet.DefaultForwardTimeout, "per-attempt forward timeout for requests without their own deadline")
		maxBody       = fs.Int64("max-body", 0, "request body size limit in bytes (0 = default)")
		maxBatch      = fs.Int("max-batch", 0, "most jobs accepted per /v1/batch envelope (0 = default)")
		slowTrace     = fs.Duration("slow-trace", server.DefaultSlowTrace, "log any request trace slower than this with its span breakdown (negative disables)")
		traceBuffer   = fs.Int("trace-buffer", server.DefaultTraceBuffer, "recent request traces kept for GET /debug/traces")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight forwards")
	)
	if code, done := cliutil.ParseFlags(fs, argv); done {
		return code
	}
	if *backends == "" {
		fmt.Fprintln(stderr, "mpschedrouter: -backends is required")
		return 2
	}
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		urls = append(urls, u)
	}
	codec, ok := wire.ByName(*forwardCodec)
	if !ok {
		fmt.Fprintf(stderr, "mpschedrouter: unknown -forward-codec %q\n", *forwardCodec)
		return 2
	}

	logger := log.New(stderr, "mpschedrouter: ", log.LstdFlags)
	rt, err := fleet.New(fleet.Options{
		Backends:       urls,
		ForwardCodec:   codec,
		VNodes:         *vnodes,
		ProbeInterval:  *probeInterval,
		ProbeTimeout:   *probeTimeout,
		FailAfter:      *failAfter,
		ForwardTimeout: *fwdTimeout,
		MaxBodyBytes:   *maxBody,
		MaxBatchJobs:   *maxBatch,
		SlowTrace:      *slowTrace,
		TraceBuffer:    *traceBuffer,
		Logger:         slog.New(slog.NewTextHandler(stderr, nil)),
	})
	if err != nil {
		fmt.Fprintf(stderr, "mpschedrouter: %v\n", err)
		return 2
	}
	defer rt.Close()

	banner := fmt.Sprintf("mpschedrouter listening on %%s (%d backends)", len(urls))
	return cliutil.Serve(*addr, rt, banner, *drainTimeout, stdout, logger, ready, nil)
}
