package wire

import (
	"reflect"
	"strconv"
	"strings"
)

// The hand-written JSON forms of the request envelope and CompileResponse
// (see jsontext.go). Each decoder reads its message in the canonical form
// into a zero value, keys in any order; each encoder writes its fields in
// declaration order with omitempty honoured, as encoding/json does.

// The canonical keys of each message, as their json tags spell them.
var (
	requestKeys  = jsonKeys[CompileRequest]()
	selectKeys   = jsonKeys[SelectConfig]()
	schedKeys    = jsonKeys[SchedConfig]()
	responseKeys = jsonKeys[CompileResponse]()
	censusKeys   = jsonKeys[CensusResponse]()
	stageKeys    = jsonKeys[StageTimingResponse]()
)

// jsonKeys returns the keys encoding/json gives T's fields: each exported
// field's tag name, or its Go name when the tag has none, leaving out
// fields tagged "-". field tracks keys in a uint32.
func jsonKeys[T any]() []string {
	t := reflect.TypeFor[T]()
	var keys []string
	for i := range t.NumField() {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case !f.IsExported() || name == "-":
			continue
		case name == "":
			name = f.Name
		}
		keys = append(keys, name)
	}
	if len(keys) > 32 {
		panic("wire: " + t.Name() + " has more JSON keys than a scanner tracks")
	}
	return keys
}

// field reads an object key and its colon and returns the key, one of
// keys, failing on any other key and on one that seen, the keys already
// read, holds.
func (s *scanner) field(keys []string, seen *uint32) string {
	k := s.key()
	for i, key := range keys {
		if string(k) == key && *seen&(1<<i) == 0 {
			*seen |= 1 << i
			return key
		}
	}
	s.fail()
	return ""
}

// object reads an object's members, calling member with each key.
func (s *scanner) object(keys []string, member func(key string)) {
	var seen uint32
	s.expect('{')
	for first := true; s.more('}', first); first = false {
		if key := s.field(keys, &seen); !s.bad {
			member(key)
		}
	}
}

// request reads a request envelope, the whole text, into req. Its dfg
// text stays in req.DFG as a slice of s.data, for the caller to decode
// while the bytes are live; it is checked one level down, inside the
// envelope, so it may nest as deep as encoding/json lets it there.
func (s *scanner) request(req *CompileRequest) {
	s.object(requestKeys, func(key string) {
		switch key {
		case "name":
			req.Name = s.str()
		case "workload":
			req.Workload = s.str()
		case "dfg":
			if s.peek() == 'n' { // null: no graph, as encoding/json reads it
				s.fail()
			}
			req.DFG = s.skip(1)
		case "select":
			c := new(SelectConfig)
			s.object(selectKeys, func(key string) {
				switch key {
				case "c":
					c.C = s.int()
				case "pdef":
					c.Pdef = s.int()
				case "span":
					c.Span = s.int()
				case "epsilon":
					c.Epsilon = s.float()
				case "alpha":
					c.Alpha = s.float()
				}
			})
			req.Select = c
		case "sched":
			c := new(SchedConfig)
			s.object(schedKeys, func(key string) {
				switch key {
				case "priority":
					c.Priority = s.str()
				case "tie":
					c.Tie = s.str()
				case "seed":
					c.Seed = s.int64()
				case "switch_penalty":
					c.SwitchPenalty = s.int64()
				}
			})
			req.Sched = c
		case "stop_after":
			req.StopAfter = s.str()
		case "spans":
			req.Spans = s.ints()
		}
	})
}

// response reads a CompileResponse into resp.
func (s *scanner) response(resp *CompileResponse) {
	s.object(responseKeys, func(key string) {
		switch key {
		case "name":
			resp.Name = s.str()
		case "nodes":
			resp.Nodes = s.int()
		case "edges":
			resp.EdgesCount = s.int()
		case "patterns":
			resp.Patterns = s.strs()
		case "cycles":
			resp.Cycles = s.int()
		case "lower_bound":
			resp.LowerBound = s.int()
		case "utilization":
			resp.Utilization = s.float()
		case "cycle_of":
			resp.CycleOf = s.ints()
		case "pattern_of":
			resp.PatternOf = s.ints()
		case "scheduler_patterns":
			resp.SchedulerPatterns = s.strs()
		case "stop_after":
			resp.StopAfter = s.str()
		case "span":
			resp.Span = s.int()
		case "swept_spans":
			resp.SweptSpans = s.bool()
		case "census":
			c := new(CensusResponse)
			s.object(censusKeys, func(key string) {
				switch key {
				case "antichains":
					c.Antichains = s.int()
				case "classes":
					c.Classes = s.int()
				case "span":
					c.Span = s.int()
				}
			})
			resp.Census = c
		case "stages":
			resp.Stages = make([]StageTimingResponse, 0, s.count())
			s.expect('[')
			for first := true; s.more(']', first); first = false {
				var st StageTimingResponse
				s.object(stageKeys, func(key string) {
					if key == "stage" {
						st.Stage = s.str()
					} else {
						st.MS = s.float()
					}
				})
				resp.Stages = append(resp.Stages, st)
			}
		case "cache_hit":
			resp.CacheHit = s.bool()
		case "elapsed_ms":
			resp.ElapsedMS = s.float()
		case "trace_id":
			resp.TraceID = s.str()
		}
	})
}

// count returns the number of members of the array that starts at the
// next byte, reading ahead without consuming it, or 0 if it is not a
// well-formed array: the readers size their slices once.
func (s *scanner) count() int {
	ahead := *s
	ahead.expect('[')
	n := 0
	for first := true; ahead.more(']', first); first = false {
		ahead.value(1)
		n++
	}
	if ahead.bad {
		return 0
	}
	return n
}

// ints reads an array of ints; [] is empty, not nil, as encoding/json
// reads it.
func (s *scanner) ints() []int {
	out := make([]int, 0, s.count())
	s.expect('[')
	for first := true; s.more(']', first); first = false {
		out = append(out, s.int())
	}
	return out
}

// strs reads an array of strings as ints reads ints.
func (s *scanner) strs() []string {
	out := make([]string, 0, s.count())
	s.expect('[')
	for first := true; s.more(']', first); first = false {
		out = append(out, s.str())
	}
	return out
}

// member appends an object member's key, after a comma unless it is the
// first member of the object opened at open.
func member(dst []byte, open int, key string) []byte {
	if len(dst) > open {
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, key...)
	return append(dst, '"', ':')
}

func appendInt(dst []byte, v int64) []byte { return strconv.AppendInt(dst, v, 10) }

// appendRequestJSON appends req as encoding/json encodes it, or reports
// false when encoding/json refuses it: a dfg text that is not one JSON
// value, or a float that is not finite. The dfg text goes in verbatim
// when it has no whitespace between tokens, compacted otherwise.
func appendRequestJSON(dst []byte, req *CompileRequest) ([]byte, bool) {
	dst = append(dst, '{')
	open := len(dst)
	if req.Name != "" {
		dst = appendJSONString(member(dst, open, "name"), req.Name)
	}
	if req.Workload != "" {
		dst = appendJSONString(member(dst, open, "workload"), req.Workload)
	}
	if len(req.DFG) > 0 {
		ok, spaced := validJSON(req.DFG)
		if !ok {
			return dst, false
		}
		if dst = member(dst, open, "dfg"); spaced {
			dst = appendCompactJSON(dst, req.DFG)
		} else {
			dst = append(dst, req.DFG...)
		}
	}
	if c := req.Select; c != nil {
		if !isFinite(c.Epsilon) || !isFinite(c.Alpha) {
			return dst, false
		}
		dst = append(member(dst, open, "select"), '{')
		in := len(dst)
		if c.C != 0 {
			dst = appendInt(member(dst, in, "c"), int64(c.C))
		}
		if c.Pdef != 0 {
			dst = appendInt(member(dst, in, "pdef"), int64(c.Pdef))
		}
		if c.Span != 0 {
			dst = appendInt(member(dst, in, "span"), int64(c.Span))
		}
		if c.Epsilon != 0 {
			dst = appendJSONFloat(member(dst, in, "epsilon"), c.Epsilon)
		}
		if c.Alpha != 0 {
			dst = appendJSONFloat(member(dst, in, "alpha"), c.Alpha)
		}
		dst = append(dst, '}')
	}
	if c := req.Sched; c != nil {
		dst = append(member(dst, open, "sched"), '{')
		in := len(dst)
		if c.Priority != "" {
			dst = appendJSONString(member(dst, in, "priority"), c.Priority)
		}
		if c.Tie != "" {
			dst = appendJSONString(member(dst, in, "tie"), c.Tie)
		}
		if c.Seed != 0 {
			dst = appendInt(member(dst, in, "seed"), c.Seed)
		}
		if c.SwitchPenalty != 0 {
			dst = appendInt(member(dst, in, "switch_penalty"), c.SwitchPenalty)
		}
		dst = append(dst, '}')
	}
	if req.StopAfter != "" {
		dst = appendJSONString(member(dst, open, "stop_after"), req.StopAfter)
	}
	if len(req.Spans) > 0 {
		dst = appendJSONInts(member(dst, open, "spans"), req.Spans)
	}
	return append(dst, '}'), true
}

// appendResponseJSON appends resp as encoding/json encodes it, or
// reports false for a float that is not finite.
func appendResponseJSON(dst []byte, resp *CompileResponse) ([]byte, bool) {
	finite := isFinite(resp.Utilization) && isFinite(resp.ElapsedMS)
	for _, st := range resp.Stages {
		finite = finite && isFinite(st.MS)
	}
	if !finite {
		return dst, false
	}
	dst = appendJSONString(append(dst, `{"name":`...), resp.Name)
	dst = appendInt(append(dst, `,"nodes":`...), int64(resp.Nodes))
	dst = appendInt(append(dst, `,"edges":`...), int64(resp.EdgesCount))
	if len(resp.Patterns) > 0 {
		dst = appendJSONStrs(append(dst, `,"patterns":`...), resp.Patterns)
	}
	if resp.Cycles != 0 {
		dst = appendInt(append(dst, `,"cycles":`...), int64(resp.Cycles))
	}
	if resp.LowerBound != 0 {
		dst = appendInt(append(dst, `,"lower_bound":`...), int64(resp.LowerBound))
	}
	if resp.Utilization != 0 {
		dst = appendJSONFloat(append(dst, `,"utilization":`...), resp.Utilization)
	}
	if len(resp.CycleOf) > 0 {
		dst = appendJSONInts(append(dst, `,"cycle_of":`...), resp.CycleOf)
	}
	if len(resp.PatternOf) > 0 {
		dst = appendJSONInts(append(dst, `,"pattern_of":`...), resp.PatternOf)
	}
	if len(resp.SchedulerPatterns) > 0 {
		dst = appendJSONStrs(append(dst, `,"scheduler_patterns":`...), resp.SchedulerPatterns)
	}
	if resp.StopAfter != "" {
		dst = appendJSONString(append(dst, `,"stop_after":`...), resp.StopAfter)
	}
	dst = appendInt(append(dst, `,"span":`...), int64(resp.Span))
	if resp.SweptSpans {
		dst = append(dst, `,"swept_spans":true`...)
	}
	if c := resp.Census; c != nil {
		dst = appendInt(append(dst, `,"census":{"antichains":`...), int64(c.Antichains))
		dst = appendInt(append(dst, `,"classes":`...), int64(c.Classes))
		dst = append(appendInt(append(dst, `,"span":`...), int64(c.Span)), '}')
	}
	if len(resp.Stages) > 0 {
		dst = append(dst, `,"stages":[`...)
		for i, st := range resp.Stages {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(append(dst, `{"stage":`...), st.Stage)
			dst = append(appendJSONFloat(append(dst, `,"ms":`...), st.MS), '}')
		}
		dst = append(dst, ']')
	}
	dst = strconv.AppendBool(append(dst, `,"cache_hit":`...), resp.CacheHit)
	dst = appendJSONFloat(append(dst, `,"elapsed_ms":`...), resp.ElapsedMS)
	if resp.TraceID != "" {
		dst = appendJSONString(append(dst, `,"trace_id":`...), resp.TraceID)
	}
	return append(dst, '}'), true
}

func appendJSONInts(dst []byte, vs []int) []byte {
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendInt(dst, int64(v))
	}
	return append(dst, ']')
}

func appendJSONStrs(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, s)
	}
	return append(dst, ']')
}
