package main

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"mpsched/internal/cliutil"
	"mpsched/internal/fleet"
	"mpsched/internal/pipeline"
	"mpsched/internal/server"
	"mpsched/internal/wire"
)

// Fleet mode: -backends N spawns N single-process compile daemons (this
// same binary re-exec'd with -serve-backend, each pinned to
// -backend-procs scheduler threads so N backends really are N units of
// compute) and an in-process mpschedrouter in front, then points the
// storm at the router. That makes the 1→N scaling curve a one-command
// measurement:
//
//	mpschedbench -backends 4 -codec binary -batch 16 -clients 64 -duration 5s
//
// -kill-backend-after d SIGKILLs one backend mid-storm — the chaos
// variant of the scaling gate: with the router failing the dead node's
// keys over to the next ring replica, a -strict storm must still exit 0.
// -fleet-metrics-out dumps the router's /metrics after the storm for
// scripts/benchcheck -router-metrics.

// fleetHarness owns the child backends and the router front.
type fleetHarness struct {
	children []*exec.Cmd
	rt       *fleet.Router
	hs       *http.Server
	URL      string
	stderr   io.Writer
	killOnce sync.Once
}

// forwardWriter relays child stderr to the bench's own. It hides any
// ReaderFrom the underlying writer may implement: exec's pipe copier
// otherwise hands a bytes.Buffer's backing array to ReadFrom, which
// truncates away everything the parent wrote in the meantime when the
// child exits.
type forwardWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (f *forwardWriter) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.w.Write(p)
}

// startFleet boots n backend children and the router, returning once
// every piece answers.
func startFleet(n, procs int, codec wire.Codec, stderr io.Writer) (*fleetHarness, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	h := &fleetHarness{stderr: stderr}
	childErr := &forwardWriter{w: stderr}
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-serve-backend", "127.0.0.1:0")
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("GOMAXPROCS=%d", procs),
			"MPSCHEDBENCH_CHILD=1")
		cmd.Stderr = childErr
		out, err := cmd.StdoutPipe()
		if err != nil {
			h.Close()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			h.Close()
			return nil, fmt.Errorf("spawn backend %d: %w", i, err)
		}
		h.children = append(h.children, cmd)
		addr, err := readBackendAddr(out)
		if err != nil {
			h.Close()
			return nil, fmt.Errorf("backend %d: %w", i, err)
		}
		urls = append(urls, "http://"+addr)
	}

	rt, err := fleet.New(fleet.Options{Backends: urls, ForwardCodec: codec})
	if err != nil {
		h.Close()
		return nil, err
	}
	h.rt = rt
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.Close()
		return nil, err
	}
	h.hs = &http.Server{Handler: rt}
	go func() { _ = h.hs.Serve(ln) }()
	h.URL = "http://" + ln.Addr().String()
	fmt.Fprintf(stderr, "mpschedbench: fleet of %d backends (GOMAXPROCS=%d each) behind router %s\n",
		n, procs, h.URL)
	return h, nil
}

// readBackendAddr scans the child's first stdout line for its bound
// address, bounded so a wedged child cannot hang the whole bench.
func readBackendAddr(out io.ReadCloser) (string, error) {
	type lineErr struct {
		line string
		err  error
	}
	ch := make(chan lineErr, 1)
	go func() {
		sc := bufio.NewScanner(out)
		if !sc.Scan() {
			ch <- lineErr{err: fmt.Errorf("backend exited before announcing its address: %v", sc.Err())}
			return
		}
		ch <- lineErr{line: sc.Text()}
		// Drain the rest so the child never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case le := <-ch:
		if le.err != nil {
			return "", le.err
		}
		fields := strings.Fields(le.line)
		if len(fields) == 0 {
			return "", fmt.Errorf("unparseable backend banner %q", le.line)
		}
		return fields[len(fields)-1], nil
	case <-time.After(10 * time.Second):
		return "", fmt.Errorf("backend never announced its address")
	}
}

// killBackend hard-kills the last child — no drain, no goodbye — to
// exercise the router's failover mid-storm.
func (h *fleetHarness) killBackend() {
	h.killOnce.Do(func() {
		c := h.children[len(h.children)-1]
		fmt.Fprintf(h.stderr, "mpschedbench: SIGKILL backend %d (pid %d) mid-storm\n",
			len(h.children)-1, c.Process.Pid)
		_ = c.Process.Kill()
	})
}

// dumpMetrics writes the router's /metrics text to path.
func (h *fleetHarness) dumpMetrics(path string) error {
	resp, err := http.Get(h.URL + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(f, resp.Body)
	return err
}

func (h *fleetHarness) Close() {
	if h.hs != nil {
		_ = h.hs.Close()
	}
	if h.rt != nil {
		h.rt.Close()
	}
	for _, c := range h.children {
		_ = c.Process.Signal(syscall.SIGTERM)
	}
	for _, c := range h.children {
		waited := make(chan struct{})
		go func(c *exec.Cmd) { _ = c.Wait(); close(waited) }(c)
		select {
		case <-waited:
		case <-time.After(5 * time.Second):
			_ = c.Process.Kill()
			<-waited
		}
	}
}

// runBackend is the child body behind -serve-backend: one plain compile
// daemon on addr, announced on stdout, drained on SIGTERM. It exists so
// fleet mode needs no mpschedd binary on PATH — the bench re-execs
// itself. A non-empty storeDir backs the result cache with a persistent
// tier, exactly like mpschedd -store-dir — the restart storm's backend.
func runBackend(addr, storeDir string, storeMax int64, stdout, stderr io.Writer) int {
	var opts server.Options
	if storeDir != "" {
		cache, err := pipeline.NewTieredCache(0, 0, storeDir, storeMax, func(format string, args ...any) {
			fmt.Fprintf(stderr, "mpschedbench backend: "+format+"\n", args...)
		})
		if err != nil {
			fmt.Fprintln(stderr, "mpschedbench:", err)
			return 1
		}
		defer func() {
			if err := cache.Close(); err != nil {
				fmt.Fprintln(stderr, "mpschedbench: close store:", err)
			}
		}()
		opts.Cache = cache
	}
	srv := server.New(opts)
	logger := log.New(stderr, "mpschedbench backend: ", log.LstdFlags)
	return cliutil.Serve(addr, srv, "mpschedbench backend listening on %s", 30*time.Second, stdout, logger, nil, srv.Drain)
}
