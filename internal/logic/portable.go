package logic

import (
	"encoding/json"
	"fmt"
)

// Portable is a factory-independent snapshot of one or more formulas.
// It stores the reachable DAG in dependency order, so the same
// conditions can be rebuilt inside any Factory — the mechanism the
// sweep engine uses to compute IGP reachability conditions once and
// replay them into every worker's formula universe instead of paying
// the path-vector propagation per worker (DESIGN.md, "Sweep engine").
//
// A Portable is immutable after Export and safe for concurrent Import
// into distinct factories.
type Portable struct {
	nodes []pnode
	roots []int32
}

// pnode mirrors node but its children reference indices within the
// Portable's own node slice (0 = False, 1 = True), not any factory.
type pnode struct {
	k    kind
	v    Var
	a, b int32
}

// Export encodes the formulas rooted at roots. Shared subterms are
// stored once; the i-th exported root corresponds to the i-th formula
// returned by Import.
func (f *Factory) Export(roots ...F) *Portable { return f.export(nil, roots) }

// ExportCanonical is Export with a canonical encoding: the operands of
// each And and Or are ordered by a structural hash instead of factory
// IDs, so equal formulas export to equal bytes whatever order, or
// factory, they were built in — what a persisted baseline needs to be
// byte-deterministic.
func (f *Factory) ExportCanonical(roots ...F) *Portable {
	hashes := make(map[F]uint64, 2*len(roots)+16)
	var hash func(F) uint64
	hash = func(x F) uint64 {
		if x == False || x == True {
			return uint64(x) + 1
		}
		if h, ok := hashes[x]; ok {
			return h
		}
		n := f.nodes[x]
		h := mix64(uint64(n.k)<<32 | uint64(n.v))
		switch n.k {
		case kNot:
			h = mix64(h ^ hash(n.a))
		case kAnd, kOr:
			ha, hb := hash(n.a), hash(n.b)
			h = mix64(mix64(h^min(ha, hb)) ^ max(ha, hb))
		}
		hashes[x] = h
		return h
	}
	return f.export(func(a, b F) bool { return hash(b) < hash(a) }, roots)
}

// export encodes roots; swap, when set, reports whether an And or Or
// node's operands are stored in reverse.
func (f *Factory) export(swap func(a, b F) bool, roots []F) *Portable {
	p := &Portable{nodes: make([]pnode, 2, 2+len(roots))}
	p.nodes[False] = pnode{k: kConst}
	p.nodes[True] = pnode{k: kConst}
	memo := make(map[F]int32, 2*len(roots)+16)
	memo[False] = 0
	memo[True] = 1
	var rec func(F) int32
	rec = func(x F) int32 {
		if id, ok := memo[x]; ok {
			return id
		}
		n := f.nodes[x]
		var nd pnode
		switch n.k {
		case kVar:
			nd = pnode{k: kVar, v: n.v}
		case kNot:
			nd = pnode{k: kNot, a: rec(n.a)}
		default: // kAnd, kOr
			a, b := n.a, n.b
			if swap != nil && swap(a, b) {
				a, b = b, a
			}
			nd = pnode{k: n.k, a: rec(a), b: rec(b)}
		}
		id := int32(len(p.nodes))
		p.nodes = append(p.nodes, nd)
		memo[x] = id
		return id
	}
	p.roots = make([]int32, len(roots))
	for i, r := range roots {
		p.roots[i] = rec(r)
	}
	return p
}

// NumRoots reports how many formulas the snapshot carries.
func (p *Portable) NumRoots() int { return len(p.roots) }

// NumNodes reports the size of the stored DAG including the constants.
func (p *Portable) NumNodes() int { return len(p.nodes) }

// Root returns the node index of the i-th exported root.
func (p *Portable) Root(i int) int { return int(p.roots[i]) }

// NodeShape describes stored node i for external compilers (the query
// compiler in internal/qc evaluates snapshots without rebuilding them in
// a Factory). Unlike Factory.Shape, the returned Shape's A and B are
// indices into the Portable's own node array (0 = False, 1 = True), not
// factory references; nodes are stored in dependency order, so children
// always precede their parents.
func (p *Portable) NodeShape(i int) Shape {
	n := p.nodes[i]
	switch n.k {
	case kConst:
		return Shape{Kind: WalkConst, Value: i == int(True)}
	case kVar:
		return Shape{Kind: WalkVar, Variable: n.v}
	case kNot:
		return Shape{Kind: WalkNot, A: F(n.a)}
	case kAnd:
		return Shape{Kind: WalkAnd, A: F(n.a), B: F(n.b)}
	default:
		return Shape{Kind: WalkOr, A: F(n.a), B: F(n.b)}
	}
}

// Import rebuilds the snapshot inside f and returns one F per exported
// root, in Export order. Reconstruction goes through the ordinary
// constructors, so hash-consing and the local simplifications apply:
// importing into the factory that exported the snapshot yields formulas
// equivalent to the originals, and importing twice is idempotent.
func (p *Portable) Import(f *Factory) []F {
	ids := make([]F, len(p.nodes))
	ids[False] = False
	ids[True] = True
	for i := 2; i < len(p.nodes); i++ {
		n := p.nodes[i]
		switch n.k {
		case kVar:
			ids[i] = f.Var(n.v)
		case kNot:
			ids[i] = f.Not(ids[n.a])
		case kAnd:
			ids[i] = f.And(ids[n.a], ids[n.b])
		default:
			ids[i] = f.Or(ids[n.a], ids[n.b])
		}
	}
	out := make([]F, len(p.roots))
	for i, r := range p.roots {
		out[i] = ids[r]
	}
	return out
}

// portableJSON is the wire form of a Portable: the non-constant nodes as
// [kind, var, a, b] quadruples (indices 0 and 1, the constants, are
// implicit) plus the root indices. Used by the incremental result store
// to persist reachability conditions across processes.
type portableJSON struct {
	Nodes [][4]int32 `json:"n"`
	Roots []int32    `json:"r"`
}

// MarshalJSON encodes the snapshot for persistence.
func (p *Portable) MarshalJSON() ([]byte, error) {
	w := portableJSON{Nodes: make([][4]int32, 0, len(p.nodes)-2), Roots: p.roots}
	for _, n := range p.nodes[2:] {
		w.Nodes = append(w.Nodes, [4]int32{int32(n.k), int32(n.v), n.a, n.b})
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes a snapshot produced by MarshalJSON, validating
// node kinds and child indices so a corrupted store cannot produce an
// out-of-bounds Import.
func (p *Portable) UnmarshalJSON(data []byte) error {
	var w portableJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	nodes := make([]pnode, 2, 2+len(w.Nodes))
	nodes[False] = pnode{k: kConst}
	nodes[True] = pnode{k: kConst}
	for i, q := range w.Nodes {
		self := int32(2 + i)
		n := pnode{k: kind(q[0]), v: Var(q[1]), a: q[2], b: q[3]}
		child := func(c int32) bool { return c >= 0 && c < self }
		switch n.k {
		case kVar:
			// A negative variable would index Factory.Var's cache out of
			// bounds on Import; no encoder ever writes one.
			if n.v < 0 {
				return fmt.Errorf("logic: portable node %d: bad variable %d", self, n.v)
			}
			n.a, n.b = 0, 0
		case kNot:
			if !child(n.a) {
				return fmt.Errorf("logic: portable node %d: bad child %d", self, n.a)
			}
			n.b = 0
		case kAnd, kOr:
			if !child(n.a) || !child(n.b) {
				return fmt.Errorf("logic: portable node %d: bad children %d,%d", self, n.a, n.b)
			}
		default:
			return fmt.Errorf("logic: portable node %d: bad kind %d", self, n.k)
		}
		nodes = append(nodes, n)
	}
	for _, r := range w.Roots {
		if r < 0 || int(r) >= len(nodes) {
			return fmt.Errorf("logic: portable root %d out of range", r)
		}
	}
	p.nodes = nodes
	p.roots = w.Roots
	return nil
}
