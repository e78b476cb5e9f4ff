package pipeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"mpsched/internal/alloc"
	"mpsched/internal/dfg"
	"mpsched/internal/frame"
	"mpsched/internal/patsel"
	"mpsched/internal/pattern"
	"mpsched/internal/sched"
)

// entryCodec serialises cacheEntry for the persistent disk tier: magic +
// version + flags, then each artifact in internal/frame's primitives. The
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

// errEntryFormat reports a malformed encoded entry.
var errEntryFormat = errors.New("pipeline: malformed cache entry")

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
			buf = frame.AppendFloat64(buf, st.Priority)
			buf = frame.AppendBool(buf, st.Synthesized)
			keys := make([]string, 0, len(st.Priorities))
			for k := range st.Priorities {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			buf = binary.AppendUvarint(buf, uint64(len(keys)))
			for _, k := range keys {
				buf = frame.AppendString(buf, k)
				buf = frame.AppendFloat64(buf, st.Priorities[k])
			}
			buf = frame.AppendStrings(buf, st.Deleted)
		}
	}
	if e.schedule != nil {
		s := e.schedule
		buf = frame.AppendInts(buf, s.CycleOf)
		buf = frame.AppendInts(buf, s.PatternOf)
		buf = binary.AppendUvarint(buf, uint64(len(s.Cycles)))
		for _, cyc := range s.Cycles {
			buf = frame.AppendInts(buf, cyc)
		}
		buf = binary.AppendUvarint(buf, uint64(len(s.Trace)))
		for _, tr := range s.Trace {
			buf = binary.AppendVarint(buf, int64(tr.Cycle))
			buf = frame.AppendInts(buf, tr.Candidates)
			buf = binary.AppendUvarint(buf, uint64(len(tr.PerPattern)))
			for _, pp := range tr.PerPattern {
				buf = frame.AppendInts(buf, pp)
			}
			buf = binary.AppendVarint(buf, int64(tr.Chosen))
		}
	}
	if e.program != nil {
		p := e.program
		for _, v := range []int{p.Arch.ALUs, p.Arch.RegsPerALU, p.Arch.Memories, p.Arch.MemWords, p.Arch.Buses, p.Arch.MaxPatterns} {
			buf = binary.AppendVarint(buf, int64(v))
		}
		buf = frame.AppendInts(buf, p.ALUOf)
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
			buf = frame.AppendString(buf, k)
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
	r := frame.NewReader(data, errEntryFormat)
	magic := r.Take(len(entryMagic) + 2)
	if r.Err() != nil || string(magic[:len(entryMagic)]) != entryMagic {
		return nil, fmt.Errorf("%w: bad magic", errEntryFormat)
	}
	if magic[len(entryMagic)] != entryVersion {
		return nil, fmt.Errorf("%w: unknown version %d", errEntryFormat, magic[len(entryMagic)])
	}
	flags := magic[len(entryMagic)+1]
	e := &cacheEntry{
		span:  int(r.Varint()),
		swept: flags&entrySwept != 0,
	}
	// Skip the node signatures older writers stored for delta compiles.
	for n := r.Count(); n > 0; n-- {
		r.Uvarint()
	}
	if flags&entryHasCensus != 0 {
		e.census = &CensusSummary{
			Antichains: int(r.Varint()),
			Classes:    int(r.Varint()),
			Span:       int(r.Varint()),
		}
	}
	if flags&entryHasSelection != 0 {
		sel := &patsel.Selection{Patterns: readPatternSet(&r)}
		steps := r.Count()
		if steps > 0 {
			sel.Steps = make([]patsel.Step, steps)
		}
		for i := range sel.Steps {
			st := &sel.Steps[i]
			st.Chosen = readPattern(&r)
			st.Priority = r.Float64()
			st.Synthesized = r.Bool()
			if n := r.Count(); n > 0 {
				st.Priorities = make(map[string]float64, n)
				for j := 0; j < n; j++ {
					k := string(r.Bytes())
					st.Priorities[k] = r.Float64()
				}
			}
			st.Deleted = readEntryStrings(&r)
		}
		e.selection = sel
	}
	if flags&entryHasSchedule != 0 {
		s := &sched.Schedule{
			CycleOf:   r.Ints(),
			PatternOf: r.Ints(),
		}
		if e.selection != nil {
			s.Patterns = e.selection.Patterns
		}
		if n := r.Count(); n > 0 {
			s.Cycles = make([][]int, n)
			for i := range s.Cycles {
				s.Cycles[i] = r.Ints()
			}
		}
		if n := r.Count(); n > 0 {
			s.Trace = make([]sched.CycleTrace, n)
			for i := range s.Trace {
				tr := &s.Trace[i]
				tr.Cycle = int(r.Varint())
				tr.Candidates = r.Ints()
				if m := r.Count(); m > 0 {
					tr.PerPattern = make([][]int, m)
					for j := range tr.PerPattern {
						tr.PerPattern[j] = r.Ints()
					}
				}
				tr.Chosen = int(r.Varint())
			}
		}
		e.schedule = s
	}
	if flags&entryHasProgram != 0 {
		p := &alloc.Program{
			Arch: alloc.Arch{
				ALUs:        int(r.Varint()),
				RegsPerALU:  int(r.Varint()),
				Memories:    int(r.Varint()),
				MemWords:    int(r.Varint()),
				Buses:       int(r.Varint()),
				MaxPatterns: int(r.Varint()),
			},
			ALUOf: r.Ints(),
		}
		if n := r.Count(); n > 0 {
			p.ResultLoc = make([]alloc.Loc, n)
			for i := range p.ResultLoc {
				p.ResultLoc[i] = alloc.Loc{
					Reg:  int(r.Varint()),
					Mem:  int(r.Varint()),
					Word: int(r.Varint()),
				}
			}
		}
		// Always a map, as alloc.Allocate returns one even for a graph
		// with no named inputs: the disk tier must not answer nil where
		// the memory tier answers empty.
		n := r.Count()
		p.InputAddr = make(map[string]int, n)
		for i := 0; i < n; i++ {
			k := string(r.Bytes())
			p.InputAddr[k] = int(r.Varint())
		}
		p.Stats = alloc.Stats{
			Spills:        int(r.Varint()),
			CrossALUMoves: int(r.Varint()),
			MemoryReads:   int(r.Varint()),
			MaxLiveRegs:   int(r.Varint()),
		}
		e.program = p
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return e, nil
}

func appendPattern(buf []byte, p pattern.Pattern) []byte {
	colors := p.Colors()
	buf = binary.AppendUvarint(buf, uint64(len(colors)))
	for _, c := range colors {
		buf = frame.AppendString(buf, string(c))
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

// readEntryStrings is frame.Reader.Strings without its UTF-8 check. Every
// entry string is read as bytes, unlike a wire string: a library caller's
// graph may carry any bytes in its colors and input names, and its
// entries must decode.
func readEntryStrings(r *frame.Reader) []string {
	n := r.Count()
	if r.Err() != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = string(r.Bytes())
	}
	return out
}

func readPattern(r *frame.Reader) pattern.Pattern {
	n := r.Count()
	if r.Err() != nil {
		return pattern.Pattern{}
	}
	colors := make([]dfg.Color, n)
	for i := range colors {
		colors[i] = dfg.Color(r.Bytes())
	}
	if r.Err() != nil {
		return pattern.Pattern{}
	}
	return pattern.FromSorted(colors)
}

func readPatternSet(r *frame.Reader) *pattern.Set {
	n := r.Count()
	if r.Err() != nil {
		return nil
	}
	set := pattern.NewSet()
	for i := 0; i < n; i++ {
		set.Add(readPattern(r))
	}
	if r.Err() != nil {
		return nil
	}
	return set
}
