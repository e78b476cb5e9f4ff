package pipeline

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"testing"

	"mpsched/internal/alloc"
	"mpsched/internal/cliutil"
	"mpsched/internal/dfg"
	"mpsched/internal/sched"
	"mpsched/internal/workloads"
)

// compileOnce runs one full compile (through allocation, with trace)
// against the given cache and returns the report.
func compileOnce(t testing.TB, cache ResultCache, g *dfg.Graph) *Report {
	t.Helper()
	c := NewCompiler(Options{Cache: cache})
	rep, err := c.Compile(context.Background(), NewSpec(g,
		WithSelect(selectCfg(4)),
		WithSchedule(sched.Options{KeepTrace: true}),
		WithArch(alloc.DefaultArch()),
	))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return rep
}

// entryBytes canonicalises a report into the disk codec's byte form —
// the strongest equality we have for compile artifacts.
func entryBytes(t testing.TB, rep *Report) []byte {
	t.Helper()
	b, err := entryCodec{}.Append(nil, &cacheEntry{
		selection: rep.Selection,
		schedule:  rep.Schedule,
		program:   rep.Program,
		census:    rep.Census,
		span:      rep.Span,
		swept:     rep.SweptSpans,
	})
	if err != nil {
		t.Fatalf("encode report: %v", err)
	}
	return b
}

func TestEntryCodecRoundTrip(t *testing.T) {
	rep := compileOnce(t, nil, workloads.ThreeDFT())
	e := &cacheEntry{
		selection: rep.Selection,
		schedule:  rep.Schedule,
		program:   rep.Program,
		census:    rep.Census,
		span:      rep.Span,
		swept:     rep.SweptSpans,
	}
	enc, err := entryCodec{}.Append(nil, e)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := entryCodec{}.Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// Re-encoding the decoded entry must reproduce the bytes exactly —
	// the bit-stable artifact contract.
	enc2, err := entryCodec{}.Append(nil, dec)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("decode→encode did not round-trip bit-identically")
	}
	// Spot-check semantic fields survived.
	if dec.span != e.span || dec.swept != e.swept {
		t.Fatalf("span/swept: got %d/%v want %d/%v", dec.span, dec.swept, e.span, e.swept)
	}
	if dec.schedule.Length() != e.schedule.Length() {
		t.Fatalf("schedule length: got %d want %d", dec.schedule.Length(), e.schedule.Length())
	}
	if len(dec.selection.Steps) != len(e.selection.Steps) {
		t.Fatalf("selection steps: got %d want %d", len(dec.selection.Steps), len(e.selection.Steps))
	}
	if dec.program.Stats != e.program.Stats {
		t.Fatalf("program stats: got %+v want %+v", dec.program.Stats, e.program.Stats)
	}
	// Decoded schedule shares the selection's pattern set, as live
	// entries do.
	if dec.schedule.Patterns != dec.selection.Patterns {
		t.Fatal("decoded schedule must share the selection's pattern set")
	}
}

// TestEntryCodecReadsParentEntries keeps disk stores written before the
// delta compile path was removed hitting. The fixtures are version-1
// entries for 3dft and fft:8 (compileOnce's configuration) as that
// writer stored them, node signatures included; each must decode to
// exactly what a fresh compile produces today.
func TestEntryCodecReadsParentEntries(t *testing.T) {
	fft8, err := workloads.RadixTwoFFT(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		file string
		g    *dfg.Graph
	}{
		{"testdata/v1-sigs-3dft.entry", workloads.ThreeDFT()},
		{"testdata/v1-sigs-fft8.entry", fft8},
	} {
		stored, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := entryCodec{}.Decode(stored)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.file, err)
		}
		fresh := compileOnce(t, nil, tc.g)
		if dec.span != fresh.Span || dec.swept != fresh.SweptSpans {
			t.Fatalf("%s: span/swept %d/%v, fresh %d/%v", tc.file, dec.span, dec.swept, fresh.Span, fresh.SweptSpans)
		}
		if *dec.census != *fresh.Census {
			t.Fatalf("%s: census %+v, fresh %+v", tc.file, *dec.census, *fresh.Census)
		}
		if got, want := dec.selection.Patterns.String(), fresh.Selection.Patterns.String(); got != want {
			t.Fatalf("%s: selection %s, fresh %s", tc.file, got, want)
		}
		if got, want := dec.schedule.Length(), fresh.Schedule.Length(); got != want {
			t.Fatalf("%s: schedule length %d, fresh %d", tc.file, got, want)
		}
		// Every artifact, not just the spot checks: re-encoding the
		// decoded entry reproduces a fresh compile's bytes. Only the
		// signature list differs from the stored bytes, so they are longer.
		reenc, err := entryCodec{}.Append(nil, dec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reenc, entryBytes(t, fresh)) {
			t.Fatalf("%s: decoded entry differs from a fresh compile", tc.file)
		}
		if len(stored) <= len(reenc) {
			t.Fatalf("%s: fixture carries no node signatures to skip", tc.file)
		}
	}
}

// FuzzEntryCodec: the entry decoder, which reads whatever bytes a disk
// segment holds, never panics, and an entry it accepts re-encodes to
// bytes that decode and re-encode identically.
func FuzzEntryCodec(f *testing.F) {
	for _, file := range []string{"testdata/v1-sigs-3dft.entry", "testdata/v1-sigs-fft8.entry"} {
		stored, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(stored)
	}
	rep := compileOnce(f, nil, workloads.ThreeDFT())
	f.Add(entryBytes(f, rep))
	for _, e := range []*cacheEntry{
		{selection: rep.Selection, census: rep.Census, span: 2, swept: true},
		{census: rep.Census, span: -1},
	} {
		enc, err := entryCodec{}.Append(nil, e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := entryCodec{}.Decode(data)
		if err != nil {
			return
		}
		enc, err := entryCodec{}.Append(nil, e)
		if err != nil {
			// The decoder takes a schedule without a selection, which the
			// writer never writes and refuses to.
			if e.schedule != nil && e.selection == nil {
				return
			}
			t.Fatalf("re-encode a decoded entry: %v", err)
		}
		again, err := entryCodec{}.Decode(enc)
		if err != nil {
			t.Fatalf("decode a re-encoded entry: %v", err)
		}
		if reenc, err := (entryCodec{}).Append(nil, again); err != nil || !bytes.Equal(reenc, enc) {
			t.Fatalf("a re-encoded entry re-encodes differently (%v)", err)
		}
	})
}

func TestTieredCacheWarmRestart(t *testing.T) {
	dir := t.TempDir()
	g := workloads.ThreeDFT()

	cache1, err := NewTieredCache(0, 0, dir, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	cold := compileOnce(t, cache1, g)
	if cold.CacheHit {
		t.Fatal("cold compile reported a cache hit")
	}
	if err := cache1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh tiered cache over the same directory serves the
	// compile from disk.
	cache2, err := NewTieredCache(0, 0, dir, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer cache2.Close()
	warm := compileOnce(t, cache2, g)
	if !warm.CacheHit {
		t.Fatal("compile after restart missed the persisted store")
	}
	if !bytes.Equal(entryBytes(t, cold), entryBytes(t, warm)) {
		t.Fatal("disk-served compile differs from the original")
	}
}

// TestTieredEquivalence pins the old-vs-new acceptance criterion at the
// pipeline layer: compiles served through the tiered store are
// bit-identical to the in-memory-cache path, across the workload catalog.
func TestTieredEquivalence(t *testing.T) {
	graphs := []*dfg.Graph{
		workloads.ThreeDFT(),
		workloads.Fig4Small(),
	}
	for _, g := range graphs {
		mem := NewShardedCache(0, 0)
		tiered, err := NewTieredCache(0, 0, t.TempDir(), 0, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		memCold := compileOnce(t, mem, g)
		memWarm := compileOnce(t, mem, g)
		tierCold := compileOnce(t, tiered, g)
		tierWarm := compileOnce(t, tiered, g)
		want := entryBytes(t, memCold)
		for name, rep := range map[string]*Report{
			"memory warm": memWarm, "tiered cold": tierCold, "tiered warm": tierWarm,
		} {
			if !memWarm.CacheHit || !tierWarm.CacheHit {
				t.Fatalf("%s: warm path missed the cache", g.Name)
			}
			if !bytes.Equal(want, entryBytes(t, rep)) {
				t.Fatalf("%s: %s compile differs from memory-cache path", g.Name, name)
			}
		}
		tiered.Close()
	}
}

// TestMemoryAndDiskHitsAgree: one (graph, config) pair has one answer,
// whichever tier serves it. A memory-tier hit and a disk-tier hit after
// reopening the store return deep-equal Reports, timings aside.
func TestMemoryAndDiskHitsAgree(t *testing.T) {
	for _, spec := range []string{"3dft", "fig4", "ndft:4", "fir:8,4", "matmul:3", "butterfly:3", "random:seed=7,n=64"} {
		g, err := cliutil.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		mem := NewShardedCache(0, 0)
		compileOnce(t, mem, g)
		memHit := compileOnce(t, mem, g)

		dir := t.TempDir()
		tiered, err := NewTieredCache(0, 0, dir, 0, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		compileOnce(t, tiered, g)
		if err := tiered.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := NewTieredCache(0, 0, dir, 0, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		diskHit := compileOnce(t, reopened, g)
		reopened.Close()

		if !memHit.CacheHit || !diskHit.CacheHit {
			t.Fatalf("%s: memory hit %v, disk hit %v", spec, memHit.CacheHit, diskHit.CacheHit)
		}
		for _, rep := range []*Report{memHit, diskHit} {
			rep.Elapsed, rep.Stages = 0, nil
		}
		// The memory tier still carries the census through
		// Selection.Enumerated, which the disk tier drops; removing it
		// from cached entries is open work (ROADMAP, "Cache the answer").
		sel := *memHit.Selection
		sel.Enumerated = nil
		memHit.Selection = &sel
		if !reflect.DeepEqual(memHit, diskHit) {
			t.Errorf("%s: memory-tier and disk-tier hits differ", spec)
		}
	}
}
