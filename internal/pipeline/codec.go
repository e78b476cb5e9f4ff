package pipeline

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"mpsched/internal/alloc"
	"mpsched/internal/dfg"
	"mpsched/internal/patsel"
	"mpsched/internal/pattern"
	"mpsched/internal/sched"
)

// entryCodec serialises cacheEntry for the persistent disk tier: magic +
// version + flags, then each artifact in a varint-framed layout. The
// encoding is deterministic (map keys are sorted) so identical compiles
// store identical bytes — the bit-stable artifact contract.
//
// Graph pointers are deliberately not stored: the store key embeds the
// graph fingerprint, and rebindReport re-points the decoded schedule and
// program at the requesting spec's own graph, exactly as memory-tier
// hits are rebound. Selection.Enumerated (the full antichain census) is
// not stored either, so a disk-tier hit returns it nil where a
// memory-tier hit still carries the census of the compile that filled
// the entry.
type entryCodec struct{}

const (
	entryMagic   = "MPE"
	entryVersion = 1

	entryHasSelection = 1 << 0
	entryHasSchedule  = 1 << 1
	entryHasProgram   = 1 << 2
	entryHasCensus    = 1 << 3
	entrySwept        = 1 << 4
)

// Append implements store.Codec.
func (entryCodec) Append(buf []byte, e *cacheEntry) ([]byte, error) {
	if e == nil {
		return nil, fmt.Errorf("pipeline: nil cache entry")
	}
	if e.schedule != nil && e.selection == nil {
		// The schedule's pattern set is stored once, via the selection it
		// came from (cacheable compiles always selected).
		return nil, fmt.Errorf("pipeline: cache entry has a schedule but no selection")
	}
	var flags byte
	if e.selection != nil {
		flags |= entryHasSelection
	}
	if e.schedule != nil {
		flags |= entryHasSchedule
	}
	if e.program != nil {
		flags |= entryHasProgram
	}
	if e.census != nil {
		flags |= entryHasCensus
	}
	if e.swept {
		flags |= entrySwept
	}
	buf = append(buf, entryMagic...)
	buf = append(buf, entryVersion, flags)
	buf = binary.AppendVarint(buf, int64(e.span))
	// The v1 layout has a node-signature list here. Nothing reads it any
	// more; the empty count keeps the layout, and with it older stores.
	buf = binary.AppendUvarint(buf, 0)
	if e.census != nil {
		buf = binary.AppendVarint(buf, int64(e.census.Antichains))
		buf = binary.AppendVarint(buf, int64(e.census.Classes))
		buf = binary.AppendVarint(buf, int64(e.census.Span))
	}
	if e.selection != nil {
		buf = appendPatternSet(buf, e.selection.Patterns)
		buf = binary.AppendUvarint(buf, uint64(len(e.selection.Steps)))
		for _, st := range e.selection.Steps {
			buf = appendPattern(buf, st.Chosen)
			buf = appendEntryFloat(buf, st.Priority)
			buf = appendEntryBool(buf, st.Synthesized)
			keys := make([]string, 0, len(st.Priorities))
			for k := range st.Priorities {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			buf = binary.AppendUvarint(buf, uint64(len(keys)))
			for _, k := range keys {
				buf = appendEntryString(buf, k)
				buf = appendEntryFloat(buf, st.Priorities[k])
			}
			buf = appendEntryStrings(buf, st.Deleted)
		}
	}
	if e.schedule != nil {
		s := e.schedule
		buf = appendEntryInts(buf, s.CycleOf)
		buf = appendEntryInts(buf, s.PatternOf)
		buf = binary.AppendUvarint(buf, uint64(len(s.Cycles)))
		for _, cyc := range s.Cycles {
			buf = appendEntryInts(buf, cyc)
		}
		buf = binary.AppendUvarint(buf, uint64(len(s.Trace)))
		for _, tr := range s.Trace {
			buf = binary.AppendVarint(buf, int64(tr.Cycle))
			buf = appendEntryInts(buf, tr.Candidates)
			buf = binary.AppendUvarint(buf, uint64(len(tr.PerPattern)))
			for _, pp := range tr.PerPattern {
				buf = appendEntryInts(buf, pp)
			}
			buf = binary.AppendVarint(buf, int64(tr.Chosen))
		}
	}
	if e.program != nil {
		p := e.program
		for _, v := range []int{p.Arch.ALUs, p.Arch.RegsPerALU, p.Arch.Memories, p.Arch.MemWords, p.Arch.Buses, p.Arch.MaxPatterns} {
			buf = binary.AppendVarint(buf, int64(v))
		}
		buf = appendEntryInts(buf, p.ALUOf)
		buf = binary.AppendUvarint(buf, uint64(len(p.ResultLoc)))
		for _, loc := range p.ResultLoc {
			buf = binary.AppendVarint(buf, int64(loc.Reg))
			buf = binary.AppendVarint(buf, int64(loc.Mem))
			buf = binary.AppendVarint(buf, int64(loc.Word))
		}
		names := make([]string, 0, len(p.InputAddr))
		for k := range p.InputAddr {
			names = append(names, k)
		}
		sort.Strings(names)
		buf = binary.AppendUvarint(buf, uint64(len(names)))
		for _, k := range names {
			buf = appendEntryString(buf, k)
			buf = binary.AppendVarint(buf, int64(p.InputAddr[k]))
		}
		for _, v := range []int{p.Stats.Spills, p.Stats.CrossALUMoves, p.Stats.MemoryReads, p.Stats.MaxLiveRegs} {
			buf = binary.AppendVarint(buf, int64(v))
		}
	}
	return buf, nil
}

// Decode implements store.Codec. Schedule.Graph, Program.Graph and
// Program.Schedule come back nil/unbound; rebindReport re-points them.
func (entryCodec) Decode(data []byte) (*cacheEntry, error) {
	r := &entryReader{data: data}
	magic := r.take(len(entryMagic) + 2)
	if r.err != nil || string(magic[:len(entryMagic)]) != entryMagic {
		return nil, fmt.Errorf("pipeline: bad entry magic")
	}
	if magic[len(entryMagic)] != entryVersion {
		return nil, fmt.Errorf("pipeline: unknown entry version %d", magic[len(entryMagic)])
	}
	flags := magic[len(entryMagic)+1]
	e := &cacheEntry{
		span:  int(r.varint()),
		swept: flags&entrySwept != 0,
	}
	// Skip the node signatures older writers stored for delta compiles.
	for n := r.count(); n > 0; n-- {
		r.uvarint()
	}
	if flags&entryHasCensus != 0 {
		e.census = &CensusSummary{
			Antichains: int(r.varint()),
			Classes:    int(r.varint()),
			Span:       int(r.varint()),
		}
	}
	if flags&entryHasSelection != 0 {
		sel := &patsel.Selection{Patterns: r.patternSet()}
		steps := r.count()
		if steps > 0 {
			sel.Steps = make([]patsel.Step, steps)
		}
		for i := range sel.Steps {
			st := &sel.Steps[i]
			st.Chosen = r.pattern()
			st.Priority = r.float()
			st.Synthesized = r.bool()
			if n := r.count(); n > 0 {
				st.Priorities = make(map[string]float64, n)
				for j := 0; j < n; j++ {
					k := r.string()
					st.Priorities[k] = r.float()
				}
			}
			st.Deleted = r.strings()
		}
		e.selection = sel
	}
	if flags&entryHasSchedule != 0 {
		s := &sched.Schedule{
			CycleOf:   r.ints(),
			PatternOf: r.ints(),
		}
		if e.selection != nil {
			s.Patterns = e.selection.Patterns
		}
		if n := r.count(); n > 0 {
			s.Cycles = make([][]int, n)
			for i := range s.Cycles {
				s.Cycles[i] = r.ints()
			}
		}
		if n := r.count(); n > 0 {
			s.Trace = make([]sched.CycleTrace, n)
			for i := range s.Trace {
				tr := &s.Trace[i]
				tr.Cycle = int(r.varint())
				tr.Candidates = r.ints()
				if m := r.count(); m > 0 {
					tr.PerPattern = make([][]int, m)
					for j := range tr.PerPattern {
						tr.PerPattern[j] = r.ints()
					}
				}
				tr.Chosen = int(r.varint())
			}
		}
		e.schedule = s
	}
	if flags&entryHasProgram != 0 {
		p := &alloc.Program{
			Arch: alloc.Arch{
				ALUs:        int(r.varint()),
				RegsPerALU:  int(r.varint()),
				Memories:    int(r.varint()),
				MemWords:    int(r.varint()),
				Buses:       int(r.varint()),
				MaxPatterns: int(r.varint()),
			},
			ALUOf: r.ints(),
		}
		if n := r.count(); n > 0 {
			p.ResultLoc = make([]alloc.Loc, n)
			for i := range p.ResultLoc {
				p.ResultLoc[i] = alloc.Loc{
					Reg:  int(r.varint()),
					Mem:  int(r.varint()),
					Word: int(r.varint()),
				}
			}
		}
		// Always a map, as alloc.Allocate returns one even for a graph
		// with no named inputs: the disk tier must not answer nil where
		// the memory tier answers empty.
		n := r.count()
		p.InputAddr = make(map[string]int, n)
		for i := 0; i < n; i++ {
			k := r.string()
			p.InputAddr[k] = int(r.varint())
		}
		p.Stats = alloc.Stats{
			Spills:        int(r.varint()),
			CrossALUMoves: int(r.varint()),
			MemoryReads:   int(r.varint()),
			MaxLiveRegs:   int(r.varint()),
		}
		e.program = p
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(r.data) {
		return nil, fmt.Errorf("pipeline: %d trailing bytes after entry", len(r.data)-r.pos)
	}
	return e, nil
}

// --- encode primitives (self-contained: internal/wire frames requests,
// not stored artifacts, and importing it here would be a layering smell).

func appendEntryString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendEntryStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = appendEntryString(buf, s)
	}
	return buf
}

func appendEntryInts(buf []byte, vs []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

func appendEntryFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

func appendEntryBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendPattern(buf []byte, p pattern.Pattern) []byte {
	colors := p.Colors()
	buf = binary.AppendUvarint(buf, uint64(len(colors)))
	for _, c := range colors {
		buf = appendEntryString(buf, string(c))
	}
	return buf
}

func appendPatternSet(buf []byte, s *pattern.Set) []byte {
	if s == nil {
		return binary.AppendUvarint(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(s.Len()))
	for _, p := range s.Patterns() {
		buf = appendPattern(buf, p)
	}
	return buf
}

// entryReader is a sticky-error cursor over an encoded entry. After the
// first error every accessor returns zero values, so decode paths don't
// need per-field error plumbing; the final r.err check catches all.
type entryReader struct {
	data []byte
	pos  int
	err  error
}

func (r *entryReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("pipeline: "+format, args...)
	}
}

func (r *entryReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.data)-r.pos < n {
		r.fail("truncated entry at %d (+%d)", r.pos, n)
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *entryReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail("bad uvarint at %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *entryReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.fail("bad varint at %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// count reads a collection length, bounded by the bytes remaining (every
// element costs at least one byte) so corrupt lengths can't force huge
// allocations.
func (r *entryReader) count() int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.data)-r.pos) {
		r.fail("count %d exceeds remaining %d bytes", v, len(r.data)-r.pos)
		return 0
	}
	return int(v)
}

func (r *entryReader) float() float64 {
	b := r.take(8)
	if r.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (r *entryReader) bool() bool {
	b := r.take(1)
	return r.err == nil && b[0] != 0
}

func (r *entryReader) string() string {
	n := r.count()
	b := r.take(n)
	if r.err != nil {
		return ""
	}
	return string(b)
}

func (r *entryReader) strings() []string {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.string()
	}
	return out
}

func (r *entryReader) ints() []int {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(r.varint())
	}
	return out
}

func (r *entryReader) pattern() pattern.Pattern {
	n := r.count()
	if r.err != nil {
		return pattern.Pattern{}
	}
	colors := make([]dfg.Color, n)
	for i := range colors {
		colors[i] = dfg.Color(r.string())
	}
	if r.err != nil {
		return pattern.Pattern{}
	}
	return pattern.FromSorted(colors)
}

func (r *entryReader) patternSet() *pattern.Set {
	n := r.count()
	if r.err != nil {
		return nil
	}
	set := pattern.NewSet()
	for i := 0; i < n; i++ {
		set.Add(r.pattern())
	}
	if r.err != nil {
		return nil
	}
	return set
}
