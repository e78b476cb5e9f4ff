package dfg

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mpsched/internal/graph"
)

// jsonGraph is the wire/on-disk JSON shape of a Graph — the `dfg` format
// accepted by the CLI tools (-in graph.json) and the mpschedd compile
// service (the "dfg" field of POST /v1/compile and /v1/jobs bodies):
//
//	{
//	  "name":  "my-graph",
//	  "nodes": [
//	    {"name": "a0", "color": "a",
//	     "op": "add",                               // optional semantics
//	     "args": [{"input": "x0"}, {"const": 2}],   // operands, see jsonOperand
//	     "output": "y0"},                           // optional output label
//	    ...
//	  ],
//	  "edges": [[0,1], [0,2], ...]                  // [from,to] node indices
//	}
//
// Node order defines node ids: nodes[i] is node i, and edge/operand
// references index into that order. "color" is the paper's l(n) function
// type and is required; "op" is one of add, sub, mul, neg, pass and may be
// omitted for structural nodes. Decoding is strict — duplicate node names
// (ErrDuplicateName), edge or operand indices outside [0, N)
// (ErrIndexRange), and dependency cycles (ErrCyclic) are rejected with
// typed errors and never panic, so the format is safe to accept from
// untrusted network clients.
//
// This JSON shape is one codec among several: internal/wire is the
// canonical registry of the serving stack's wire formats (wire.JSON,
// wire.Binary — selected per connection via Content-Type). The compact
// binary graph framing the binary codec embeds lives in binary.go
// (AppendBinary/UnmarshalBinary) and is interchangeable with this shape,
// fingerprint for fingerprint.
type jsonGraph struct {
	Name  string     `json:"name"`
	Nodes []jsonNode `json:"nodes"`
	Edges [][2]int   `json:"edges"`
}

type jsonNode struct {
	Name   string        `json:"name"`
	Color  string        `json:"color"`
	Op     string        `json:"op,omitempty"`
	Args   []jsonOperand `json:"args,omitempty"`
	Output string        `json:"output,omitempty"`
}

// jsonOperand is one operand of a node's operation: exactly one of "node"
// (the id of another node whose result feeds this one — a matching edge
// must exist), "input" (a named external input), or "const" (a literal)
// must be set.
type jsonOperand struct {
	Node  *int     `json:"node,omitempty"`
	Input string   `json:"input,omitempty"`
	Const *float64 `json:"const,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (d *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{Name: d.Name, Edges: d.g.Edges()}
	for _, n := range d.nodes {
		jn := jsonNode{Name: n.Name, Color: string(n.Color), Output: n.Output}
		if n.Op != OpNone {
			jn.Op = n.Op.String()
		}
		for _, a := range n.Args {
			switch a.Kind {
			case OperandNode:
				id := a.Node
				jn.Args = append(jn.Args, jsonOperand{Node: &id})
			case OperandInput:
				jn.Args = append(jn.Args, jsonOperand{Input: a.Input})
			case OperandConst:
				v := a.Const
				jn.Args = append(jn.Args, jsonOperand{Const: &v})
			}
		}
		jg.Nodes = append(jg.Nodes, jn)
	}
	return json.MarshalIndent(jg, "", "  ")
}

// UnmarshalJSON implements json.Unmarshaler. On success the receiver is
// replaced wholesale; on any error it is left untouched.
func (d *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return fmt.Errorf("dfg: %w", err)
	}
	asm := newAssembler(jg.Name, len(jg.Nodes))
	for _, jn := range jg.Nodes {
		n := Node{Name: jn.Name, Color: Color(jn.Color), Output: jn.Output}
		if jn.Op != "" {
			op, err := ParseOp(jn.Op)
			if err != nil {
				return err
			}
			n.Op = op
		}
		if len(jn.Args) > 0 {
			n.Args = make([]Operand, 0, len(jn.Args))
		}
		for _, ja := range jn.Args {
			switch {
			case ja.Node != nil:
				n.Args = append(n.Args, NodeRef(*ja.Node))
			case ja.Input != "":
				n.Args = append(n.Args, InputRef(ja.Input))
			case ja.Const != nil:
				n.Args = append(n.Args, ConstVal(*ja.Const))
			default:
				return fmt.Errorf("dfg: node %s: empty operand", jn.Name)
			}
		}
		if err := asm.node(&n); err != nil {
			return err
		}
	}
	asm.expectEdges(len(jg.Edges))
	for _, e := range jg.Edges {
		if err := asm.edge(e[0], e[1]); err != nil {
			return err
		}
	}
	fresh, err := asm.graph()
	if err != nil {
		return err
	}
	d.replaceWith(fresh)
	return nil
}

// WriteText renders the graph in the line-oriented text format:
//
//	dfg <name>
//	node <name> <color>
//	edge <from-name> <to-name>
//
// Comments start with '#'. Semantics are not carried by the text format;
// use JSON for that.
func WriteText(w io.Writer, d *Graph) error {
	if _, err := fmt.Fprintf(w, "dfg %s\n", d.Name); err != nil {
		return err
	}
	for _, n := range d.nodes {
		if _, err := fmt.Fprintf(w, "node %s %s\n", n.Name, n.Color); err != nil {
			return err
		}
	}
	for _, e := range d.g.Edges() {
		if _, err := fmt.Fprintf(w, "edge %s %s\n", d.NameOf(e[0]), d.NameOf(e[1])); err != nil {
			return err
		}
	}
	return nil
}

// ReadText parses the text format produced by WriteText.
func ReadText(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	d := NewGraph("unnamed")
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "dfg":
			if len(fields) != 2 {
				return nil, fmt.Errorf("dfg text line %d: want 'dfg <name>'", lineNo)
			}
			d.Name = fields[1]
		case "node":
			if len(fields) != 3 {
				return nil, fmt.Errorf("dfg text line %d: want 'node <name> <color>'", lineNo)
			}
			if _, err := d.AddNode(Node{Name: fields[1], Color: Color(fields[2])}); err != nil {
				return nil, fmt.Errorf("dfg text line %d: %w", lineNo, err)
			}
		case "edge":
			if len(fields) != 3 {
				return nil, fmt.Errorf("dfg text line %d: want 'edge <from> <to>'", lineNo)
			}
			f, ok := d.ID(fields[1])
			if !ok {
				return nil, fmt.Errorf("dfg text line %d: unknown node %q", lineNo, fields[1])
			}
			t, ok := d.ID(fields[2])
			if !ok {
				return nil, fmt.Errorf("dfg text line %d: unknown node %q", lineNo, fields[2])
			}
			if err := d.AddDep(f, t); err != nil {
				return nil, fmt.Errorf("dfg text line %d: %w", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("dfg text line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// WriteDOT renders the DFG in Graphviz DOT format with color-coded shapes
// and nodes ranked by ASAP level, matching the paper's figure layout.
func WriteDOT(w io.Writer, d *Graph) error {
	lv := d.Levels()
	shapeFor := func(c Color) string {
		switch c {
		case "a":
			return "ellipse"
		case "b":
			return "box"
		case "c":
			return "diamond"
		default:
			return "hexagon"
		}
	}
	return graph.WriteDOT(w, d.g, graph.DOTOptions{
		Name:  sanitizeDOTName(d.Name),
		Label: func(i int) string { return d.nodes[i].Name },
		Attrs: func(i int) []string {
			return []string{"shape=" + shapeFor(d.nodes[i].Color)}
		},
		Rank: func(i int) int { return lv.ASAP[i] },
	})
}

func sanitizeDOTName(s string) string {
	var sb strings.Builder
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') || r == '_' {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	if sb.Len() == 0 {
		return "G"
	}
	if c := sb.String()[0]; c >= '0' && c <= '9' {
		return "g" + sb.String()
	}
	return sb.String()
}

// FormatLevelTable renders the paper's Table 1: name, ASAP, ALAP, Height per
// node, sorted the way the paper lists them (by ASAP, then ALAP, then name).
func FormatLevelTable(d *Graph) string {
	lv := d.Levels()
	ids := make([]int, d.N())
	for i := range ids {
		ids[i] = i
	}
	sortIDs(ids, func(x, y int) bool {
		if lv.ASAP[x] != lv.ASAP[y] {
			return lv.ASAP[x] < lv.ASAP[y]
		}
		if lv.ALAP[x] != lv.ALAP[y] {
			return lv.ALAP[x] < lv.ALAP[y]
		}
		return d.NameOf(x) < d.NameOf(y)
	})
	var sb strings.Builder
	sb.WriteString("node  asap  alap  height\n")
	for _, id := range ids {
		sb.WriteString(fmt.Sprintf("%-5s %4d  %4d  %6d\n",
			d.NameOf(id), lv.ASAP[id], lv.ALAP[id], lv.Height[id]))
	}
	return sb.String()
}

func sortIDs(ids []int, less func(x, y int) bool) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && less(ids[j], ids[j-1]); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// ParseFloat is a shared helper for CLI tools reading numeric arguments.
func ParseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
