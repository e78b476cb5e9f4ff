package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpsched/internal/benchfmt"
)

func write(t *testing.T, name string, rep benchfmt.Report) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func check(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out bytes.Buffer
	code := run(args, &out, &out)
	return code, out.String()
}

func microReport(ns float64, allocs int64) benchfmt.Report {
	rep := benchfmt.NewReport()
	rep.Results = []benchfmt.Result{
		{Name: "Enumerate/3dft", Iterations: 100, NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: 1},
		{Name: "OnlyInCurrent", Iterations: 1, NsPerOp: 5},
	}
	return rep
}

func loadReport(errors int64, p50 float64) benchfmt.Report {
	rep := benchfmt.NewReport()
	rep.Results = []benchfmt.Result{{
		Name: "loadgen/ci", Iterations: 50, NsPerOp: 2e6, JobsPerSec: 100,
		P50Ns: p50, P90Ns: p50 * 1.5, P99Ns: p50 * 2, P999Ns: p50 * 3,
		Requests: 50, Errors: errors, Rejected: 2, CacheHitRatio: 0.9,
	}}
	return rep
}

func TestSchemaOnly(t *testing.T) {
	cur := write(t, "cur.json", microReport(1000, 10))
	if code, out := check(t, "-current", cur); code != 0 {
		t.Fatalf("valid report rejected:\n%s", out)
	}
	if code, _ := check(t); code == 0 {
		t.Fatal("missing -current accepted")
	}
	empty := write(t, "empty.json", benchfmt.NewReport())
	if code, _ := check(t, "-current", empty); code == 0 {
		t.Fatal("empty result set accepted")
	}
	if code, _ := check(t, "-current", filepath.Join(t.TempDir(), "missing.json")); code == 0 {
		t.Fatal("unreadable file accepted")
	}
}

func TestBaselineComparison(t *testing.T) {
	base := write(t, "base.json", microReport(1000, 10))
	within := write(t, "within.json", microReport(2500, 25)) // 2.5x, under 3x
	if code, out := check(t, "-current", within, "-baseline", base); code != 0 {
		t.Fatalf("2.5x flagged under 3x tolerance:\n%s", out)
	}
	over := write(t, "over.json", microReport(4000, 10)) // 4x ns/op
	code, out := check(t, "-current", over, "-baseline", base)
	if code == 0 {
		t.Fatalf("4x regression passed the 3x gate:\n%s", out)
	}
	if !strings.Contains(out, "FAIL") || !strings.Contains(out, "ns/op") {
		t.Fatalf("failure output unreadable:\n%s", out)
	}
	// Allocs regress too.
	allocUp := write(t, "allocs.json", microReport(1000, 100))
	if code, _ := check(t, "-current", allocUp, "-baseline", base); code == 0 {
		t.Fatal("10x allocs passed the 3x gate")
	}
	// Wider tolerance lets the same file through.
	if code, out := check(t, "-current", over, "-baseline", base, "-tol", "5"); code != 0 {
		t.Fatalf("4x flagged under 5x tolerance:\n%s", out)
	}
	// Disjoint names: nothing to compare must fail loudly, not pass silently.
	disjoint := benchfmt.NewReport()
	disjoint.Results = []benchfmt.Result{{Name: "Unrelated", Iterations: 1, NsPerOp: 1}}
	dj := write(t, "disjoint.json", disjoint)
	if code, _ := check(t, "-current", dj, "-baseline", base); code == 0 {
		t.Fatal("zero-overlap comparison passed")
	}
}

// TestBaselineBytes: bytes_per_op gates a benchmark result as
// allocs_per_op does, at the same tolerance.
func TestBaselineBytes(t *testing.T) {
	withBytes := func(bytes int64) string {
		rep := microReport(1000, 10)
		rep.Results[0].BytesPerOp = bytes
		return write(t, fmt.Sprintf("bytes%d.json", bytes), rep)
	}
	base := withBytes(1000)
	if code, out := check(t, "-current", withBytes(2500), "-baseline", base); code != 0 {
		t.Fatalf("2.5x bytes flagged under 3x tolerance:\n%s", out)
	}
	code, out := check(t, "-current", withBytes(4000), "-baseline", base)
	if code == 0 || !strings.Contains(out, "FAIL") || !strings.Contains(out, "bytes/op") {
		t.Fatalf("4x bytes passed the 3x gate, or the failure does not name bytes/op (exit %d):\n%s", code, out)
	}
}

// servingReport builds a load result for baseline-direction tests: the
// Requests field marks it so jobs_per_sec gates as a floor and p99 as a
// ceiling, not ns_per_op as a ceiling.
func servingReport(jps, p99 float64) benchfmt.Report {
	rep := benchfmt.NewReport()
	rep.Results = []benchfmt.Result{{
		Name: "serving/ci", Iterations: 1000, NsPerOp: 1e6, JobsPerSec: jps,
		P50Ns: p99 / 3, P99Ns: p99, Requests: 1000,
	}}
	return rep
}

func TestLoadBaselineDirection(t *testing.T) {
	base := write(t, "base.json", servingReport(50000, 6e6))
	// Throughput up, latency down: better on both axes must pass.
	faster := write(t, "faster.json", servingReport(90000, 3e6))
	if code, out := check(t, "-current", faster, "-baseline", base); code != 0 {
		t.Fatalf("improvement flagged as regression:\n%s", out)
	}
	// Throughput collapse (10x below baseline, floor is 1/3 at tol 3).
	slow := write(t, "slow.json", servingReport(5000, 6e6))
	code, out := check(t, "-current", slow, "-baseline", base)
	if code == 0 {
		t.Fatalf("10x throughput collapse passed the floor gate:\n%s", out)
	}
	if !strings.Contains(out, "jobs/sec") {
		t.Fatalf("failure output does not name jobs/sec:\n%s", out)
	}
	// Tail blow-up past tol×p99 fails even with healthy throughput.
	tail := write(t, "tail.json", servingReport(50000, 60e6))
	if code, _ := check(t, "-current", tail, "-baseline", base); code == 0 {
		t.Fatal("10x p99 blow-up passed the ceiling gate")
	}
	// Inside tolerance both ways is fine.
	within := write(t, "within.json", servingReport(25000, 12e6))
	if code, out := check(t, "-current", within, "-baseline", base); code != 0 {
		t.Fatalf("2x wobble flagged under 3x tolerance:\n%s", out)
	}
}

func TestRequire(t *testing.T) {
	cur := write(t, "cur.json", microReport(1000, 10))
	if code, _ := check(t, "-current", cur, "-require", "Enumerate/3dft"); code != 0 {
		t.Fatal("present -require failed")
	}
	if code, _ := check(t, "-current", cur, "-require", "Enumerate/3dft", "-require", "Ghost"); code == 0 {
		t.Fatal("missing -require passed")
	}
}

func TestLoadgenGate(t *testing.T) {
	good := write(t, "good.json", loadReport(0, 2e6))
	if code, out := check(t, "-current", good, "-loadgen", "loadgen/ci"); code != 0 {
		t.Fatalf("healthy load result rejected:\n%s", out)
	}
	witherrs := write(t, "errs.json", loadReport(3, 2e6))
	if code, _ := check(t, "-current", witherrs, "-loadgen", "loadgen/ci"); code == 0 {
		t.Fatal("load result with hard failures passed")
	}
	empty := write(t, "emptyhist.json", loadReport(0, 0))
	if code, _ := check(t, "-current", empty, "-loadgen", "loadgen/ci"); code == 0 {
		t.Fatal("empty histogram passed")
	}
	if code, _ := check(t, "-current", good, "-loadgen", "loadgen/ghost"); code == 0 {
		t.Fatal("missing load result passed")
	}
}

// TestRealBaseline: the gate accepts the repo's checked-in baseline
// compared against itself (ratio 1.0 everywhere) — the self-consistency
// CI relies on.
func TestRealBaseline(t *testing.T) {
	base := "../../BENCH_enumeration.json"
	if code, out := check(t, "-current", base, "-baseline", base); code != 0 {
		t.Fatalf("baseline does not pass against itself:\n%s", out)
	}
}

// fleetReport builds the two-result scaling-ladder shape the fleet CI
// gate feeds in.
func fleetReport(name string, jps, cacheHit float64) benchfmt.Report {
	rep := benchfmt.NewReport()
	rep.Results = []benchfmt.Result{{
		Name: name, Iterations: 100, NsPerOp: 1e6, JobsPerSec: jps,
		P50Ns: 1e6, P99Ns: 3e6, Requests: 100, CacheHitRatio: cacheHit,
	}}
	return rep
}

func TestMergedCurrentAndScaleGate(t *testing.T) {
	one := write(t, "one.json", fleetReport("loadgen/fleet-1x", 1000, 0.95))
	two := write(t, "two.json", fleetReport("loadgen/fleet-2x", 1900, 0.95))
	// 1.9x over a 1.7x floor passes; over a 2.0x floor fails.
	if code, out := check(t, "-current", one+","+two,
		"-scale", "loadgen/fleet-1x;loadgen/fleet-2x;1.7"); code != 0 {
		t.Fatalf("1.9x scaling failed a 1.7x floor:\n%s", out)
	}
	code, out := check(t, "-current", one+","+two,
		"-scale", "loadgen/fleet-1x;loadgen/fleet-2x;2.0")
	if code == 0 {
		t.Fatalf("1.9x scaling passed a 2.0x floor:\n%s", out)
	}
	if !strings.Contains(out, "FAIL scale") {
		t.Fatalf("scale failure not named:\n%s", out)
	}
	// A result missing from the merged set must fail, not silently skip.
	if code, _ := check(t, "-current", one,
		"-scale", "loadgen/fleet-1x;loadgen/fleet-2x;1.7"); code == 0 {
		t.Fatal("scale gate with a missing result passed")
	}
	// Malformed specs are usage errors.
	if code, _ := check(t, "-current", one, "-scale", "a;b"); code == 0 {
		t.Fatal("two-part -scale accepted")
	}
	if code, _ := check(t, "-current", one, "-scale", "a;b;zero"); code == 0 {
		t.Fatal("non-numeric -scale ratio accepted")
	}
	if code, _ := check(t, "-scale", "a;b;1"); code == 0 {
		t.Fatal("-scale without -current accepted")
	}
}

func TestCacheFloor(t *testing.T) {
	warm := write(t, "warm.json", fleetReport("loadgen/fleet-1x", 1000, 0.95))
	if code, out := check(t, "-current", warm, "-cache-floor", "0.9"); code != 0 {
		t.Fatalf("0.95 hit ratio failed a 0.9 floor:\n%s", out)
	}
	cold := write(t, "cold.json", fleetReport("loadgen/fleet-1x", 1000, 0.5))
	code, out := check(t, "-current", cold, "-cache-floor", "0.9")
	if code == 0 {
		t.Fatalf("0.5 hit ratio passed a 0.9 floor:\n%s", out)
	}
	if !strings.Contains(out, "cache hit ratio") {
		t.Fatalf("cache failure not named:\n%s", out)
	}
	// Micro results (no requests) are exempt from the floor.
	micro := write(t, "micro.json", microReport(1000, 10))
	if code, _ := check(t, "-current", micro, "-cache-floor", "0.9"); code != 0 {
		t.Fatal("micro results were held to the cache floor")
	}
}

// restartReport builds the single-result shape -restart-after emits.
func restartReport(pre, warm float64) benchfmt.Report {
	rep := benchfmt.NewReport()
	rep.Results = []benchfmt.Result{{
		Name: "serving/restart/ci", Iterations: 100, NsPerOp: 1e6, JobsPerSec: 1000,
		P50Ns: 1e6, P99Ns: 3e6, Requests: 100,
		PreRestartHitRatio: pre, WarmRestartHitRatio: warm,
	}}
	return rep
}

func TestRestartHitFloor(t *testing.T) {
	held := write(t, "held.json", restartReport(0.98, 0.97))
	if code, out := check(t, "-current", held, "-restart-hit-floor", "0.9"); code != 0 {
		t.Fatalf("warm ratio at 0.99x pre failed a 0.9 floor:\n%s", out)
	}
	collapsed := write(t, "collapsed.json", restartReport(0.98, 0.4))
	code, out := check(t, "-current", collapsed, "-restart-hit-floor", "0.9")
	if code == 0 {
		t.Fatalf("warm ratio collapse passed the floor:\n%s", out)
	}
	if !strings.Contains(out, "warm hit ratio") {
		t.Fatalf("restart failure not named:\n%s", out)
	}
	// A report with no restart-storm result must fail, not silently pass.
	micro := write(t, "micro.json", microReport(1000, 10))
	if code, _ := check(t, "-current", micro, "-restart-hit-floor", "0.9"); code == 0 {
		t.Fatal("report without a restart result passed the floor gate")
	}
	if code, _ := check(t, "-restart-hit-floor", "0.9"); code == 0 {
		t.Fatal("-restart-hit-floor without -current accepted")
	}
}

func TestRouterMetricsCheck(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.txt")
	if err := os.WriteFile(good, []byte(`# TYPE mpschedrouter_backend_up gauge
mpschedrouter_backend_up{backend="http://127.0.0.1:1"} 1
mpschedrouter_backend_up{backend="http://127.0.0.1:2"} 0
# TYPE mpschedrouter_forwarded_total counter
mpschedrouter_forwarded_total{backend="http://127.0.0.1:1"} 42
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := check(t, "-router-metrics", good); code != 0 {
		t.Fatalf("healthy router surface rejected:\n%s", out)
	}
	idle := filepath.Join(dir, "idle.txt")
	if err := os.WriteFile(idle, []byte(`mpschedrouter_backend_up{backend="http://127.0.0.1:1"} 1
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _ := check(t, "-router-metrics", idle); code == 0 {
		t.Fatal("router that forwarded nothing passed")
	}
	noUp := filepath.Join(dir, "noup.txt")
	if err := os.WriteFile(noUp, []byte(`mpschedrouter_forwarded_total 10
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _ := check(t, "-router-metrics", noUp); code == 0 {
		t.Fatal("scrape without backend_up samples passed")
	}
}
