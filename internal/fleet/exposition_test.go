package fleet

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"mpsched/internal/pipeline"
	"mpsched/internal/server"
	"mpsched/internal/server/client"
	"mpsched/internal/wire"
)

var updateExposition = flag.Bool("update-exposition", false, "rewrite the /metrics exposition golden file")

const expositionGolden = "testdata/exposition.golden"

// TestExpositionGolden pins the /metrics surface of both daemons: a
// router over two mpschedd backends on tiered stores serves a scripted
// mix (compiles, a cache hit, a failing compile, an async job, a batch),
// and every family's TYPE and HELP line, every series' label set and
// every sample value that does not depend on the clock must match the
// golden. Uptime, jobs/s, quantile and _sum samples are masked; _count
// samples stay exact. Backend URLs are replaced by their index in the
// router's configuration. On an intentional change, regenerate with:
//
//	go test -run ExpositionGolden ./internal/fleet -update-exposition
func TestExpositionGolden(t *testing.T) {
	var urls []string
	var backends []*server.Server
	for i := 0; i < 2; i++ {
		cache, err := pipeline.NewTieredCache(0, 1, t.TempDir(), 0, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(server.Options{Cache: cache})
		ts := httptest.NewServer(srv)
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = srv.Drain(ctx)
			cancel()
			_ = cache.Close()
		})
		urls = append(urls, ts.URL)
		backends = append(backends, srv)
	}
	// No probes during the run and no client-side retries or hedges: every
	// count below is then a pure function of the scripted mix.
	rt, err := New(Options{Backends: urls, ProbeInterval: time.Hour, Resilience: &client.ResilienceOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	t.Cleanup(func() {
		rts.Close()
		rt.Close()
	})

	ctx := context.Background()
	c := client.New(rts.URL)
	for _, req := range []server.CompileRequest{
		{Workload: "3dft"},
		{Workload: "3dft"}, // the cache hit
	} {
		if _, err := c.Compile(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.WithCodec(wire.Binary).Compile(ctx, server.CompileRequest{Workload: "fir:8,4"}); err != nil {
		t.Fatal(err)
	}
	// An empty graph decodes but cannot be compiled: a 422 from the backend.
	var api *client.APIError
	if _, err := c.Compile(ctx, server.CompileRequest{DFG: []byte(`{"name":"empty","nodes":[],"edges":[]}`)}); !errors.As(err, &api) || api.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("empty graph: %v, want a 422", err)
	}
	job, err := c.SubmitJob(ctx, server.CompileRequest{Workload: "ndft:4"})
	if err != nil {
		t.Fatal(err)
	}
	items, err := c.CompileBatch(ctx, []server.CompileRequest{{Workload: "3dft"}, {Workload: "butterfly:3"}, {Workload: "nope:1"}})
	if err != nil || len(items) != 3 {
		t.Fatalf("batch: %d items, %v", len(items), err)
	}
	// Direct JSON compiles at each backend, the second of each a cache hit
	// there.
	for _, u := range urls {
		for i := 0; i < 2; i++ {
			if _, err := client.New(u).Compile(ctx, server.CompileRequest{Workload: "ndft:5"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := c.Workloads(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	// Draining the backends waits out the async job without polling it,
	// so the job route is requested exactly once.
	for _, srv := range backends {
		dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		if err := srv.Drain(dctx); err != nil {
			t.Fatal(err)
		}
		cancel()
	}
	if done, err := c.Job(ctx, job.ID); err != nil || done.Status != server.JobDone {
		t.Fatalf("job: %+v, %v", done, err)
	}

	var got []string
	for _, p := range []struct{ name, url string }{
		{"router", rts.URL},
		{"backend0", urls[0]},
		{"backend1", urls[1]},
	} {
		resp, err := http.Get(p.url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		text, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		body := string(text)
		for i, u := range urls {
			body = strings.ReplaceAll(body, u, fmt.Sprintf("backend%d", i))
		}
		got = append(got, expositionEntries(t, p.name, body)...)
	}

	if *updateExposition {
		if err := os.MkdirAll(filepath.Dir(expositionGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(expositionGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(expositionGolden)
	if err != nil {
		t.Fatalf("missing golden (run with -update-exposition): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("exposition entry %d:\n got %s\nwant %s", i, g, w)
		}
	}
}

// expositionEntries flattens one exposition into comparable entries:
// process, family, TYPE, HELP, the series as rendered (name and labels)
// and its value, with clock-dependent values masked as "*". Families
// keep their exposition order; the entries within one family are sorted,
// since the order of a family's series carries no meaning.
func expositionEntries(t *testing.T, process, body string) []string {
	t.Helper()
	help, kind := map[string]string{}, map[string]string{}
	var out []string
	start := 0 // index in out of the current family's first entry
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			help[name] = text
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, text, _ := strings.Cut(rest, " ")
			kind[name] = text
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("%s: malformed sample %q", process, line)
		}
		series, value := line[:sp], line[sp+1:]
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		family := name
		for _, suffix := range []string{"_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && kind[base] == "summary" {
				family = base
			}
		}
		if _, ok := kind[family]; !ok {
			t.Fatalf("%s: sample %q has no TYPE line", process, line)
		}
		switch {
		case strings.HasSuffix(family, "_uptime_seconds"), strings.HasSuffix(family, "_jobs_per_second"),
			strings.Contains(series, `quantile="`), strings.HasSuffix(name, "_sum"):
			value = "*"
		}
		entry := strings.Join([]string{process, family, kind[family], help[family], series, value}, " | ")
		if start < len(out) && !strings.HasPrefix(out[start], process+" | "+family+" | ") {
			sort.Strings(out[start:])
			start = len(out)
		}
		out = append(out, entry)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out[start:])
	return out
}
