package logic

import (
	"strings"
	"testing"
)

// buildDeep returns a formula with heavy internal sharing: a balanced
// conjunction of pairwise disjunctions over nv variables, negated in half
// of the branches so every node kind appears.
func buildDeep(f *Factory, nv int) F {
	var parts []F
	for i := 0; i < nv; i++ {
		a := f.Var(Var(i))
		b := f.Var(Var((i + 1) % nv))
		p := f.Or(a, f.Not(b))
		if i%2 == 1 {
			p = f.Not(p)
		}
		parts = append(parts, p)
	}
	return f.AndAll(parts...)
}

// assignments enumerates all 2^n assignments over vars 0..n-1.
func assignments(n int) []Assignment {
	var out []Assignment
	for bits := 0; bits < 1<<n; bits++ {
		asn := Assignment{}
		for v := 0; v < n; v++ {
			asn[Var(v)] = bits&(1<<v) != 0
		}
		out = append(out, asn)
	}
	return out
}

// TestPortableRoundTrip pins the contract core.Shared depends on: a
// formula exported from one factory and imported into a fresh one denotes
// the same boolean function (checked exhaustively and via BDD canonicity
// inside a common factory).
func TestPortableRoundTrip(t *testing.T) {
	src := NewFactory()
	x := buildDeep(src, 6)
	p := src.Export(x)
	if p.NumRoots() != 1 {
		t.Fatalf("NumRoots = %d, want 1", p.NumRoots())
	}

	dst := NewFactory()
	got := p.Import(dst)[0]
	for _, asn := range assignments(6) {
		if src.Eval(x, asn) != dst.Eval(got, asn) {
			t.Fatalf("round trip changed the function under %v", asn)
		}
	}

	// Importing back into the source factory must hit the hash-cons table
	// and be BDD-equivalent to the original.
	back := p.Import(src)[0]
	if !src.Equivalent(back, x) {
		t.Fatal("import into the exporting factory is not equivalent")
	}
	if back != x {
		t.Fatalf("import into the exporting factory missed hash-consing: %d vs %d", back, x)
	}
}

// TestPortableSharedSubDAG exports two roots that share a subterm and
// checks both the shared structure survives (node counts) and each root's
// function is preserved.
func TestPortableSharedSubDAG(t *testing.T) {
	src := NewFactory()
	shared := src.And(src.Var(0), src.Var(1))
	r1 := src.Or(shared, src.Var(2))
	r2 := src.And(shared, src.Not(src.Var(3)))
	p := src.Export(r1, r2)
	if p.NumRoots() != 2 {
		t.Fatalf("NumRoots = %d, want 2", p.NumRoots())
	}
	// 2 constants + v0,v1,v2,v3 + shared + !v3 + r1 + r2 = 10; a copy
	// per root would store the shared subterm twice.
	if p.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10 (shared subterm must be stored once)", p.NumNodes())
	}

	dst := NewFactory()
	out := p.Import(dst)
	if len(out) != 2 {
		t.Fatalf("Import returned %d roots, want 2", len(out))
	}
	for _, asn := range assignments(4) {
		if src.Eval(r1, asn) != dst.Eval(out[0], asn) {
			t.Fatalf("root 0 changed under %v", asn)
		}
		if src.Eval(r2, asn) != dst.Eval(out[1], asn) {
			t.Fatalf("root 1 changed under %v", asn)
		}
	}
	// The rebuilt roots must share their subterm in the new factory too
	// (hash-consing makes structural sharing observable as pointer
	// equality of the And node).
	sh1 := dst.Shape(out[0])
	sh2 := dst.Shape(out[1])
	if sh1.A != sh2.A {
		t.Fatalf("shared subterm duplicated on import: %d vs %d", sh1.A, sh2.A)
	}
}

// TestPortableLiteralsAndConstants covers the degenerate roots: bare
// constants, single literals, and negated literals.
func TestPortableLiteralsAndConstants(t *testing.T) {
	src := NewFactory()
	roots := []F{False, True, src.Var(7), src.NotVar(7)}
	p := src.Export(roots...)
	dst := NewFactory()
	out := p.Import(dst)
	if out[0] != False || out[1] != True {
		t.Fatalf("constants must map to the reserved ids, got %v", out[:2])
	}
	if out[2] != dst.Var(7) {
		t.Fatal("literal did not round-trip to the canonical var node")
	}
	if out[3] != dst.Not(dst.Var(7)) {
		t.Fatal("negated literal did not round-trip")
	}
	// Exhaustive: the four roots are False, True, v7, !v7.
	for _, asn := range []Assignment{{7: true}, {7: false}} {
		for i, r := range roots {
			if src.Eval(r, asn) != dst.Eval(out[i], asn) {
				t.Fatalf("root %d changed under %v", i, asn)
			}
		}
	}
}

// TestPortableImportIdempotent: importing the same snapshot twice into
// one factory yields identical (hash-consed) formulas.
func TestPortableImportIdempotent(t *testing.T) {
	src := NewFactory()
	x := buildDeep(src, 5)
	p := src.Export(x)
	dst := NewFactory()
	a := p.Import(dst)[0]
	b := p.Import(dst)[0]
	if a != b {
		t.Fatalf("second import produced a distinct node: %d vs %d", a, b)
	}
}

// TestPortableNodeShape pins the compiler-facing metadata: nodes come in
// dependency order, NodeShape's child references index the portable's own
// array, and re-evaluating the snapshot through NodeShape alone (no
// factory) reproduces the formula's function.
func TestPortableNodeShape(t *testing.T) {
	src := NewFactory()
	x := buildDeep(src, 6)
	p := src.Export(x)

	eval := func(asn Assignment) bool {
		vals := make([]bool, p.NumNodes())
		for i := 0; i < p.NumNodes(); i++ {
			s := p.NodeShape(i)
			switch s.Kind {
			case WalkConst:
				vals[i] = s.Value
			case WalkVar:
				v, ok := asn[s.Variable]
				vals[i] = v || !ok
			case WalkNot:
				if int(s.A) >= i {
					t.Fatalf("node %d references child %d at or after itself", i, s.A)
				}
				vals[i] = !vals[s.A]
			case WalkAnd:
				vals[i] = vals[s.A] && vals[s.B]
			case WalkOr:
				vals[i] = vals[s.A] || vals[s.B]
			}
		}
		return vals[p.Root(0)]
	}
	for _, asn := range assignments(6) {
		if got, want := eval(asn), src.Eval(x, asn); got != want {
			t.Fatalf("NodeShape evaluation = %v, factory Eval = %v under %v", got, want, asn)
		}
	}
}

// TestPortableRejectsNegativeVar: a decoded snapshot carrying a negative
// variable id must be refused — Factory.Var indexes its cache by the
// variable, so importing one would panic (found by extending the decode
// fuzzer's seed corpus).
func TestPortableRejectsNegativeVar(t *testing.T) {
	var p Portable
	err := p.UnmarshalJSON([]byte(`{"n":[[1,-1,0,0]],"r":[2]}`))
	if err == nil {
		t.Fatal("negative variable id accepted; Import would index out of bounds")
	}
}

func TestCanonicalKeyStableAcrossFactories(t *testing.T) {
	f1, f2 := NewFactory(), NewFactory()
	// Interleave unrelated garbage into f2 so its F ids diverge from f1's
	// before the formula under test is built.
	for i := 100; i < 140; i++ {
		f2.Var(Var(i))
	}
	x1 := buildDeep(f1, 6)
	x2 := buildDeep(f2, 6)
	k1, ok1 := f1.CanonicalKey(x1, 0)
	k2, ok2 := f2.CanonicalKey(x2, 0)
	if !ok1 || !ok2 {
		t.Fatal("unlimited CanonicalKey must not overflow")
	}
	if k1 != k2 {
		t.Fatalf("same construction sequence, different keys:\n%s\n%s", k1, k2)
	}
	// A different formula must key differently.
	y, _ := f1.CanonicalKey(f1.Or(x1, f1.Var(Var(50))), 0)
	if y == k1 {
		t.Fatal("distinct formulas share a canonical key")
	}
}

func TestCanonicalKeyConstantsAndCap(t *testing.T) {
	f := NewFactory()
	if k, ok := f.CanonicalKey(False, 0); !ok || k != "0" {
		t.Fatalf("False key = %q, %v", k, ok)
	}
	if k, ok := f.CanonicalKey(True, 0); !ok || k != "1" {
		t.Fatalf("True key = %q, %v", k, ok)
	}
	if k, ok := f.CanonicalKey(f.Var(3), 0); !ok || !strings.Contains(k, "v3") {
		t.Fatalf("var key = %q, %v", k, ok)
	}
	big := buildDeep(f, 8)
	if _, ok := f.CanonicalKey(big, 2); ok {
		t.Fatal("cap of 2 nodes must overflow on a deep formula")
	}
	if _, ok := f.CanonicalKey(big, 0); !ok {
		t.Fatal("uncapped key must succeed")
	}
}

// TestExportCanonicalIgnoresBuildOrder builds one formula in two
// factories whose node IDs run in opposite orders: the plain Export
// encodings differ, the canonical ones are byte-identical and still
// import to the same function.
func TestExportCanonicalIgnoresBuildOrder(t *testing.T) {
	build := func(f *Factory, order []Var) F {
		for _, v := range order {
			f.Var(v) // fix the factory's ID order
		}
		return f.And(f.Or(f.Var(0), f.Not(f.Var(1))), f.Or(f.Var(2), f.Var(3)))
	}
	fa, fb := NewFactory(), NewFactory()
	xa, xb := build(fa, []Var{0, 1, 2, 3}), build(fb, []Var{3, 2, 1, 0})
	plainA, _ := fa.Export(xa).MarshalJSON()
	plainB, _ := fb.Export(xb).MarshalJSON()
	if string(plainA) == string(plainB) {
		t.Fatal("build orders did not change the plain encoding; the test no longer exercises canonicalization")
	}
	ca, err := fa.ExportCanonical(xa).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := fb.ExportCanonical(xb).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(ca) != string(cb) {
		t.Fatalf("canonical encodings differ:\n %s\n %s", ca, cb)
	}
	dst := NewFactory()
	back := fa.ExportCanonical(xa).Import(dst)[0]
	for _, asn := range assignments(4) {
		if fa.Eval(xa, asn) != dst.Eval(back, asn) {
			t.Fatalf("canonical export changed the function under %v", asn)
		}
	}
}
