// Package dfg defines the data-flow graphs scheduled by the multi-pattern
// scheduler: operation nodes carrying a *color* (the function type a
// reconfigurable ALU must be set to), dependency edges, the paper's
// ASAP/ALAP/Height level attributes, optional arithmetic semantics for
// simulation, serialisation, and validation.
package dfg

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"slices"
	"sort"
	"strconv"
	"sync"

	"mpsched/internal/graph"
)

// Typed validation errors. Graphs arrive over the network (the mpschedd
// compile service) as well as from trusted construction code, so decoding
// and validation failures are classified for errors.Is: a server can map
// them to 4xx responses and a fuzzer can assert that hostile input is
// rejected rather than accepted or panicking.
var (
	// ErrDuplicateName reports two nodes sharing a name.
	ErrDuplicateName = errors.New("duplicate node name")
	// ErrIndexRange reports an edge or operand referencing a node id
	// outside [0, N).
	ErrIndexRange = errors.New("node index out of range")
	// ErrCyclic reports a dependency cycle.
	ErrCyclic = errors.New("dependency cycle")
)

// Color identifies the function type of a node — the paper's l(n). In the
// Montium examples "a" is addition, "b" subtraction and "c" multiplication,
// but any non-empty string is a valid color.
type Color string

// Op is the optional arithmetic semantics of a node, used by the Montium
// simulator to execute schedules. Structural workloads (random DAGs) leave
// it as OpNone.
type Op int

// Supported node semantics.
const (
	OpNone Op = iota // structural node, no semantics
	OpAdd            // sum of operands
	OpSub            // first operand minus the rest
	OpMul            // product of operands
	OpNeg            // negation of the single operand
	OpPass           // copy of the single operand
)

var opNames = map[Op]string{
	OpNone: "none", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpNeg: "neg", OpPass: "pass",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// ParseOp converts the textual form back to an Op.
func ParseOp(s string) (Op, error) {
	for op, name := range opNames {
		if name == s {
			return op, nil
		}
	}
	return OpNone, fmt.Errorf("dfg: unknown op %q", s)
}

// OperandKind discriminates Operand variants.
type OperandKind int

// Operand variants: the result of another node, a named external input, or a
// compile-time constant.
const (
	OperandNode OperandKind = iota
	OperandInput
	OperandConst
)

// Operand is one argument of a node's operation.
type Operand struct {
	Kind  OperandKind
	Node  int     // node id, when Kind == OperandNode
	Input string  // input name, when Kind == OperandInput
	Const float64 // literal, when Kind == OperandConst
}

// NodeRef returns an operand referring to another node's result.
func NodeRef(id int) Operand { return Operand{Kind: OperandNode, Node: id} }

// InputRef returns an operand referring to a named external input.
func InputRef(name string) Operand { return Operand{Kind: OperandInput, Input: name} }

// ConstVal returns a constant operand.
func ConstVal(v float64) Operand { return Operand{Kind: OperandConst, Const: v} }

func (o Operand) String() string {
	switch o.Kind {
	case OperandNode:
		return fmt.Sprintf("n%d", o.Node)
	case OperandInput:
		return "$" + o.Input
	case OperandConst:
		return fmt.Sprintf("%g", o.Const)
	}
	return "?"
}

// Node is one operation of the data-flow graph.
type Node struct {
	Name   string    // unique human-readable name, e.g. "a17"
	Color  Color     // function type, e.g. "a"
	Op     Op        // optional semantics
	Args   []Operand // optional operands matching Op
	Output string    // if non-empty, this node produces the named output
}

// Graph is a data-flow graph: a DAG of colored operation nodes. Construct
// with NewGraph and AddNode/AddDep, or via the Builder.
//
// Level attributes, reachability and the fingerprint are computed lazily
// and cached; any mutation invalidates the caches. The lazy computation is
// mutex-guarded, so a fully-built graph may be read from many goroutines
// (the pipeline's worker pool relies on this); mutating concurrently with
// readers remains the caller's race, as with any Go data structure.
type Graph struct {
	Name  string
	nodes []Node
	g     *graph.Digraph

	// byName maps node names to ids. The decoders leave it nil, since
	// serving a decoded graph never looks a node up by name; names()
	// builds it on first use.
	byName map[string]int

	mu          sync.Mutex
	levels      *graph.Levels
	reach       *graph.Reachability
	inc         []*graph.BitSet
	colorCls    *ColorClasses
	fingerprint string
	validated   bool
}

// NewGraph returns an empty DFG with the given name.
func NewGraph(name string) *Graph {
	return &Graph{Name: name, g: &graph.Digraph{}}
}

// N returns the number of nodes.
func (d *Graph) N() int { return len(d.nodes) }

// M returns the number of dependency edges.
func (d *Graph) M() int { return d.g.M() }

// AddNode appends a node and returns its id. Names must be unique and
// non-empty; colors must be non-empty.
func (d *Graph) AddNode(n Node) (int, error) {
	if err := checkNode(&n); err != nil {
		return 0, err
	}
	names := d.names()
	if _, dup := names[n.Name]; dup {
		return 0, duplicateName(n.Name)
	}
	id := d.g.AddNode()
	d.nodes = append(d.nodes, n)
	names[n.Name] = id
	d.invalidate()
	return id, nil
}

// checkNode holds AddNode's checks of the node alone, shared with the
// decoders' assembler; each checks for a duplicate name against its own
// index, and reports it with duplicateName.
func checkNode(n *Node) error {
	if n.Name == "" {
		return fmt.Errorf("dfg: node with empty name")
	}
	if n.Color == "" {
		return fmt.Errorf("dfg: node %q with empty color", n.Name)
	}
	return nil
}

func duplicateName(name string) error {
	return fmt.Errorf("dfg: %w: %q", ErrDuplicateName, name)
}

// names returns the name → id map, building it on first use.
func (d *Graph) names() map[string]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.byName == nil {
		d.byName = make(map[string]int, len(d.nodes))
		for id := range d.nodes {
			d.byName[d.nodes[id].Name] = id
		}
	}
	return d.byName
}

// MustAddNode is AddNode for statically-valid construction code.
func (d *Graph) MustAddNode(n Node) int {
	id, err := d.AddNode(n)
	if err != nil {
		panic(err)
	}
	return id
}

// AddDep inserts the dependency edge from → to (from must execute before
// to). Inserting a duplicate edge is a no-op. Failures are classified:
// ids outside [0, N) wrap ErrIndexRange and a self-loop wraps ErrCyclic.
func (d *Graph) AddDep(from, to int) error {
	if from < 0 || from >= d.N() || to < 0 || to >= d.N() {
		return fmt.Errorf("dfg: edge %d→%d: %w (graph has %d nodes)", from, to, ErrIndexRange, d.N())
	}
	if from == to {
		return fmt.Errorf("dfg: edge %d→%d: %w (self-loop)", from, to, ErrCyclic)
	}
	if err := d.g.AddEdge(from, to); err != nil {
		return fmt.Errorf("dfg: %w", err)
	}
	d.invalidate()
	return nil
}

// MustAddDep is AddDep for statically-valid construction code.
func (d *Graph) MustAddDep(from, to int) {
	if err := d.AddDep(from, to); err != nil {
		panic(err)
	}
}

func (d *Graph) invalidate() {
	d.mu.Lock()
	d.resetCaches()
	d.mu.Unlock()
}

// resetCaches clears every lazy cache. d.mu must be held.
func (d *Graph) resetCaches() {
	d.levels = nil
	d.reach = nil
	d.inc = nil
	d.colorCls = nil
	d.fingerprint = ""
	d.validated = false
}

// Node returns the node with the given id.
func (d *Graph) Node(id int) Node { return d.nodes[id] }

// SetOutput marks node id as producing the named result (used by Evaluate
// and the Montium simulator). Output labels are part of the fingerprint,
// so the cached hash is invalidated; levels and reachability only depend
// on structure and survive.
func (d *Graph) SetOutput(id int, name string) {
	d.nodes[id].Output = name
	d.mu.Lock()
	d.fingerprint = ""
	d.mu.Unlock()
}

// ID looks a node up by name.
func (d *Graph) ID(name string) (int, bool) {
	id, ok := d.names()[name]
	return id, ok
}

// MustID is ID for names that are known to exist.
func (d *Graph) MustID(name string) int {
	id, ok := d.names()[name]
	if !ok {
		panic(fmt.Sprintf("dfg: unknown node %q", name))
	}
	return id
}

// NameOf returns the name of node id.
func (d *Graph) NameOf(id int) string { return d.nodes[id].Name }

// ColorOf returns the color of node id — the paper's l(n).
func (d *Graph) ColorOf(id int) Color { return d.nodes[id].Color }

// Preds returns the direct predecessors of id (graph-owned slice).
func (d *Graph) Preds(id int) []int { return d.g.Preds(id) }

// Succs returns the direct successors of id (graph-owned slice).
func (d *Graph) Succs(id int) []int { return d.g.Succs(id) }

// Digraph exposes the underlying structural graph (read-only use).
func (d *Graph) Digraph() *graph.Digraph { return d.g }

// Levels returns the cached ASAP/ALAP/Height attributes, computing them on
// first use. It panics if the graph is cyclic; use Validate first on
// untrusted input.
func (d *Graph) Levels() *graph.Levels {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.levelsLocked()
}

func (d *Graph) levelsLocked() *graph.Levels {
	if d.levels == nil {
		lv, err := graph.ComputeLevels(d.g)
		if err != nil {
			panic(fmt.Sprintf("dfg %q: %v", d.Name, err))
		}
		d.levels = lv
	}
	return d.levels
}

// Reach returns the cached transitive-closure matrix, computing it on first
// use. It panics if the graph is cyclic; use Validate first on untrusted
// input.
func (d *Graph) Reach() *graph.Reachability {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reachLocked()
}

func (d *Graph) reachLocked() *graph.Reachability {
	if d.reach == nil {
		r, err := graph.NewReachability(d.g)
		if err != nil {
			panic(fmt.Sprintf("dfg %q: %v", d.Name, err))
		}
		d.reach = r
	}
	return d.reach
}

// Incomparability returns the cached per-node parallelizability bitsets
// (Reach().Incomparability()), computing them on first use. The antichain
// enumerator walks these on every compile, so they are cached alongside
// levels and reachability rather than rebuilt per enumeration. Callers
// must treat the returned sets as read-only. Panics on cyclic graphs; use
// Validate first on untrusted input.
func (d *Graph) Incomparability() []*graph.BitSet {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.inc == nil {
		d.inc = d.reachLocked().Incomparability()
	}
	return d.inc
}

// ColorClasses partitions a graph's nodes by color.
type ColorClasses struct {
	// Colors is the color set L, sorted; a color's position is its id.
	Colors []Color
	// Of[n] is the id of node n's color.
	Of []int32
	// Masks[id] holds the nodes colored Colors[id].
	Masks []*graph.BitSet
}

// ColorClasses returns the cached color partition, computing it on first
// use. Callers must treat it as read-only.
func (d *Graph) ColorClasses() *ColorClasses {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.colorCls == nil {
		colors := d.Colors()
		byColor := make(map[Color]int32, len(colors))
		cc := &ColorClasses{Colors: colors, Of: make([]int32, d.N()), Masks: make([]*graph.BitSet, len(colors))}
		for i, c := range colors {
			byColor[c] = int32(i)
			cc.Masks[i] = graph.NewBitSet(d.N())
		}
		for id, n := range d.nodes {
			cc.Of[id] = byColor[n.Color]
			cc.Masks[cc.Of[id]].Set(id)
		}
		d.colorCls = cc
	}
	return d.colorCls
}

// Colors returns the complete color set L of the graph, sorted.
func (d *Graph) Colors() []Color {
	seen := map[Color]bool{}
	for _, n := range d.nodes {
		seen[n.Color] = true
	}
	out := make([]Color, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ColorCounts returns how many nodes carry each color.
func (d *Graph) ColorCounts() map[Color]int {
	out := map[Color]int{}
	for _, n := range d.nodes {
		out[n.Color]++
	}
	return out
}

// NodesByColor returns the ids of all nodes with the given color, ascending.
func (d *Graph) NodesByColor(c Color) []int {
	var out []int
	for id, n := range d.nodes {
		if n.Color == c {
			out = append(out, id)
		}
	}
	return out
}

// Names returns all node names in id order.
func (d *Graph) Names() []string {
	out := make([]string, len(d.nodes))
	for i, n := range d.nodes {
		out[i] = n.Name
	}
	return out
}

// Clone returns a deep copy sharing no mutable state with the original.
func (d *Graph) Clone() *Graph {
	c := NewGraph(d.Name)
	for _, n := range d.nodes {
		nn := n
		nn.Args = append([]Operand(nil), n.Args...)
		c.MustAddNode(nn)
	}
	for _, e := range d.g.Edges() {
		c.MustAddDep(e[0], e[1])
	}
	return c
}

// replaceWith moves a freshly decoded graph into d (used by the decoders;
// field-wise so d's mutex is not copied), resetting d's lazy caches. The
// decoder's passing validation carries over, so the compiler does not
// repeat it.
func (d *Graph) replaceWith(src *Graph) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.Name, d.nodes, d.g, d.byName = src.Name, src.nodes, src.g, src.byName
	d.resetCaches()
	d.validated = src.validated
}

// Fingerprint returns a content hash of the graph: nodes (name, color,
// semantics, operands, output) in id order plus the dependency edge list.
// Two graphs share a fingerprint exactly when they are identical as
// labelled DAGs, so every derived result — levels, antichain census,
// selection, schedule, allocation — is interchangeable between them. The
// graph-level Name is deliberately excluded: it never influences results.
//
// The hash is the hex SHA-256 of this byte stream, in Go fmt notation:
//
//	"v1 n=%d m=%d\n"                  node and edge counts
//	"node %q %q %d %q"                 per node: name, color, op, output
//	" %d:%d:%q:%g"                     per operand: kind, node, input, const
//	"\n"                               ending each node's line
//	"edge %d %d\n"                     per edge, sorted by (from, to)
//
// The stream is a compatibility contract, not an implementation detail:
// result-cache keys, disk stores and fleet ring placement all carry
// fingerprints across processes and releases.
// A change to any byte of it must also change the "v1" tag, so old and new
// hashes can never collide.
//
// The hash is cached and invalidated on mutation, like Levels and Reach.
// The stream is hashed in chunks of a fixed-size buffer, so computing it
// allocates nothing that grows with the graph.
func (d *Graph) Fingerprint() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fingerprint == "" {
		f := fingerprinters.Get().(*fingerprinter)
		d.fingerprint = f.sum(d)
		if cap(f.buf) <= 2*fingerprintChunk && cap(f.sorted) <= fingerprintChunk {
			fingerprinters.Put(f)
		}
	}
	return d.fingerprint
}

// fingerprintChunk is how many bytes of the fingerprint stream are
// buffered before they are hashed.
const fingerprintChunk = 1024

// fingerprinter hashes a graph's fingerprint stream. Fingerprinters are
// pooled, so a warm Fingerprint allocates only the hex string it
// returns; one whose buffers grew past their usual size (a node line
// longer than a chunk, a node with more successors than a chunk holds
// bytes) is dropped rather than kept.
type fingerprinter struct {
	h      hash.Hash
	buf    []byte // the unhashed tail of the stream
	sorted []int  // scratch for sorting one successor list
}

var fingerprinters = sync.Pool{New: func() any {
	return &fingerprinter{h: sha256.New(), buf: make([]byte, 0, 2*fingerprintChunk)}
}}

// sum returns the hex SHA-256 of d's fingerprint stream. The strconv
// calls print exactly what the documented fmt verbs print: %q is
// strconv.Quote, %d a base-10 integer and %g the shortest 'g' form.
func (f *fingerprinter) sum(d *Graph) string {
	f.h.Reset()
	b := append(f.buf[:0], "v1 n="...)
	b = strconv.AppendInt(b, int64(len(d.nodes)), 10)
	b = append(b, " m="...)
	b = strconv.AppendInt(b, int64(d.g.M()), 10)
	b = append(b, '\n')
	for i := range d.nodes {
		b = f.flush(b)
		n := &d.nodes[i]
		b = append(b, "node "...)
		b = strconv.AppendQuote(b, n.Name)
		b = append(b, ' ')
		b = strconv.AppendQuote(b, string(n.Color))
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(n.Op), 10)
		b = append(b, ' ')
		b = strconv.AppendQuote(b, n.Output)
		for _, a := range n.Args {
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(a.Kind), 10)
			b = append(b, ':')
			b = strconv.AppendInt(b, int64(a.Node), 10)
			b = append(b, ':')
			b = strconv.AppendQuote(b, a.Input)
			b = append(b, ':')
			b = strconv.AppendFloat(b, a.Const, 'g', -1, 64)
		}
		b = append(b, '\n')
	}
	// Edges in (from, to) order: node by node, each successor list sorted
	// (a copy — Succs order is part of the graph and must not change).
	for u := range d.nodes {
		succs := d.g.Succs(u)
		if !slices.IsSorted(succs) {
			f.sorted = append(f.sorted[:0], succs...)
			slices.Sort(f.sorted)
			succs = f.sorted
		}
		for _, v := range succs {
			b = f.flush(b)
			b = append(b, "edge "...)
			b = strconv.AppendInt(b, int64(u), 10)
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(v), 10)
			b = append(b, '\n')
		}
	}
	f.h.Write(b)
	f.buf = b[:0]
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], f.h.Sum(b[:0]))
	return string(hx[:])
}

// flush hashes b once it holds a chunk, returning it emptied.
func (f *fingerprinter) flush(b []byte) []byte {
	if len(b) < fingerprintChunk {
		return b
	}
	f.h.Write(b)
	return b[:0]
}

// Validate checks structural well-formedness: acyclicity, operand/edge
// consistency (every node-operand has a matching dependency edge), and
// operand arity for nodes that carry semantics.
//
// A passing validation is cached like the other lazy attributes and
// invalidated on mutation, so compiling a shared graph many times (the
// daemon's spec cache, batch envelopes) pays the topological check once.
func (d *Graph) Validate() error {
	d.mu.Lock()
	ok := d.validated
	d.mu.Unlock()
	if ok {
		return nil
	}
	if err := d.validate(); err != nil {
		return err
	}
	d.mu.Lock()
	d.validated = true
	d.mu.Unlock()
	return nil
}

func (d *Graph) validate() error {
	if err := graph.CheckAcyclic(d.g); err != nil {
		return fmt.Errorf("dfg %q: %w: %v", d.Name, ErrCyclic, err)
	}
	for id := range d.nodes {
		n := &d.nodes[id]
		// Operand index range is checked for every node — including
		// structural ones without semantics — because out-of-range ids
		// in untrusted input would otherwise surface as panics far from
		// the decode site.
		for _, a := range n.Args {
			if a.Kind == OperandNode && (a.Node < 0 || a.Node >= len(d.nodes)) {
				return fmt.Errorf("dfg %q: node %s: %w: operand references node %d of %d",
					d.Name, n.Name, ErrIndexRange, a.Node, len(d.nodes))
			}
		}
		if n.Op == OpNone {
			continue
		}
		switch n.Op {
		case OpNeg, OpPass:
			if len(n.Args) != 1 {
				return fmt.Errorf("dfg %q: node %s: %s wants 1 operand, has %d",
					d.Name, n.Name, n.Op, len(n.Args))
			}
		default:
			if len(n.Args) < 2 {
				return fmt.Errorf("dfg %q: node %s: %s wants ≥2 operands, has %d",
					d.Name, n.Name, n.Op, len(n.Args))
			}
		}
		for _, a := range n.Args {
			if a.Kind != OperandNode {
				continue
			}
			if !d.g.HasEdge(a.Node, id) {
				return fmt.Errorf("dfg %q: node %s uses n%d without a dependency edge",
					d.Name, n.Name, a.Node)
			}
		}
	}
	return nil
}

// String summarises the graph.
func (d *Graph) String() string {
	return fmt.Sprintf("dfg %q: %d nodes, %d edges, colors %v", d.Name, d.N(), d.M(), d.Colors())
}
