package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// execute runs the command with the given args, returning exit code and
// captured stdout/stderr.
func execute(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestSingleGraphExplicitPatterns(t *testing.T) {
	code, out, errOut := execute(t, "-gen", "3dft", "-patterns", "aabcc aaacc")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "7 cycles") {
		t.Errorf("expected the paper's 7-cycle schedule, got:\n%s", out)
	}
	if !strings.Contains(out, "lower bound") {
		t.Errorf("missing lower bound line:\n%s", out)
	}
}

func TestSingleGraphSelection(t *testing.T) {
	code, out, errOut := execute(t, "-gen", "3dft", "-select", "-pdef", "4")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "selected patterns:") {
		t.Errorf("missing selection line:\n%s", out)
	}
}

func TestSingleGraphTrace(t *testing.T) {
	code, out, _ := execute(t, "-gen", "3dft", "-patterns", "aabcc aaacc", "-trace")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "cycle") {
		t.Errorf("trace output missing:\n%s", out)
	}
}

func TestSingleGraphErrors(t *testing.T) {
	cases := [][]string{
		{"-gen", "3dft"}, // neither -patterns nor -select
		{"-gen", "3dft", "-patterns", "aabcc", "-select"}, // both
		{"-gen", "nosuch"}, // unknown workload
	}
	for _, args := range cases {
		code, _, errOut := execute(t, args...)
		if code == 0 {
			t.Errorf("args %v: expected failure", args)
		}
		if !strings.Contains(errOut, "mpsched:") {
			t.Errorf("args %v: error not reported on stderr: %q", args, errOut)
		}
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	code, _, _ := execute(t, "-nosuchflag")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func writeManifest(t *testing.T, lines string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fleet.txt")
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBatchMode(t *testing.T) {
	manifest := writeManifest(t, `
# mixed fleet
3dft
fig4 pdef=2 c=2 span=-1
ndft:4 pdef=3 name=dft4
fir:6,3
`)
	code, out, errOut := execute(t, "-batch", manifest, "-jobs", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"job", "cycles", "3dft", "dft4", "fir:6,3", "cache:"} {
		if !strings.Contains(out, want) {
			t.Errorf("batch output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "error:") {
		t.Errorf("unexpected job failure:\n%s", out)
	}
}

// TestBatchModeSpanSweepLabel: a manifest line with spans= is labelled
// with its sweep, as the daemon names it on the wire.
func TestBatchModeSpanSweepLabel(t *testing.T) {
	manifest := writeManifest(t, "3dft name=fleet spans=0,1,2\n3dft name=fleet\n")
	code, out, errOut := execute(t, "-batch", manifest)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "fleet[spans=0,1,2]") {
		t.Errorf("swept job not labelled with its spans:\n%s", out)
	}
}

func TestBatchModeRoundsHitCache(t *testing.T) {
	manifest := writeManifest(t, "3dft\nfig4 pdef=2 c=2 span=-1\n")
	code, out, errOut := execute(t, "-batch", manifest, "-rounds", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "round 2/2") {
		t.Errorf("missing round banner:\n%s", out)
	}
	if !strings.Contains(out, "hit") {
		t.Errorf("second round should report cache hits:\n%s", out)
	}
	if !strings.Contains(out, "2 hits") {
		t.Errorf("cache stats should count one hit per job in round 2:\n%s", out)
	}
}

func TestBatchModeGraphFile(t *testing.T) {
	dir := t.TempDir()
	graph := filepath.Join(dir, "line.txt")
	if err := os.WriteFile(graph, []byte("dfg line\nnode x a\nnode y b\nedge x y\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := writeManifest(t, graph+" pdef=2 span=-1\n")
	code, out, errOut := execute(t, "-batch", manifest)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\n%s", code, errOut, out)
	}
	if !strings.Contains(out, "line.txt") {
		t.Errorf("file-based job missing from table:\n%s", out)
	}
}

func TestBatchModeJobFailureExitsNonzero(t *testing.T) {
	manifest := writeManifest(t, "3dft\n3dft pdef=-1 name=broken\n")
	code, out, errOut := execute(t, "-batch", manifest)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "error:") {
		t.Errorf("failed job not shown in table:\n%s", out)
	}
	if !strings.Contains(errOut, "1 of 2 jobs failed") {
		t.Errorf("summary error missing: %q", errOut)
	}
	// The healthy job must still have compiled.
	if !strings.Contains(out, "ok") {
		t.Errorf("healthy job missing:\n%s", out)
	}
}

func TestBatchModeManifestErrors(t *testing.T) {
	for _, lines := range []string{
		"",                // empty manifest
		"3dft pdef\n",     // malformed option
		"3dft wat=1\n",    // unknown option
		"nosuchspec\n",    // unknown workload
		"3dft pdef=zzz\n", // unparsable value
	} {
		manifest := writeManifest(t, lines)
		code, _, errOut := execute(t, "-batch", manifest)
		if code == 0 {
			t.Errorf("manifest %q: expected failure", lines)
		}
		if errOut == "" {
			t.Errorf("manifest %q: no error output", lines)
		}
	}
	code, _, _ := execute(t, "-batch", "/nonexistent/manifest.txt")
	if code != 1 {
		t.Errorf("missing manifest: exit %d, want 1", code)
	}
}
