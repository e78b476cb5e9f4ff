package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs every workload for 300 ms, untraced and traced, and
// checks that each of its metrics prints by name with its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{w: w, seed: 1, seconds: 0.3, trace: trace, tmpDir: t.TempDir(), outDir: t.TempDir()}
			res, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.Failed > 0 || !res.correct() {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.name, trace, res.Failed, res.Attempted, res.Errors)
			}
			var out bytes.Buffer
			printResult(&out, res)
			defs := endToEnd
			if trace {
				defs = perLayer
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
			for _, d := range defs {
				line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(d.name) + `\s+\S+\s+` + regexp.QuoteMeta(d.unit) + `\s`)
				if !line.Match(out.Bytes()) {
					t.Errorf("%s trace=%v: %s does not print with unit %s:\n%s", w.name, trace, d.name, d.unit, out.String())
				}
			}
		}
	}
}
