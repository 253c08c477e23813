package qc

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hoyan"
	"hoyan/internal/logic"
)

// FuzzCompiledEval differentially tests the query compiler against the
// factory: for any Portable that decodes, every root must either refuse
// to compile or produce a program that agrees with Factory.Eval on the
// imported formula under arbitrary failure sets. The compiled path is
// what the query plane serves from, so a disagreement here is a wrong
// answer to a user — the strongest property we can check without a
// second implementation.
func FuzzCompiledEval(f *testing.F) {
	fac := logic.NewFactory()
	x := buildCond(fac, 8)
	y := fac.Not(fac.And(x, fac.Var(5)))
	seed, err := json.Marshal(fac.Export(x, y))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed, uint64(0))
	f.Add(seed, uint64(0xdeadbeef))
	f.Add([]byte(`{"n":[],"r":[0,1]}`), uint64(3))
	f.Add([]byte(`{"n":[[1,7,0,0],[2,0,2,0]],"r":[3]}`), uint64(7))
	f.Add([]byte(`not json`), uint64(1))

	f.Fuzz(func(t *testing.T, data []byte, bits uint64) {
		var p logic.Portable
		if err := json.Unmarshal(data, &p); err != nil {
			return
		}
		fac := logic.NewFactory()
		roots := p.Import(fac)
		for ri, root := range roots {
			prog, err := CompileRoot(&p, ri)
			if err != nil {
				t.Fatalf("decoded snapshot root %d refused to compile: %v", ri, err)
			}
			// Drive both evaluators from the same 64 fuzz bits: variable v
			// fails iff bit v%64 is set. Absent map entries default to true
			// in the factory, matching FailureSet's "up unless failed".
			fs := NewFailureSet(logic.Var(63))
			asn := logic.Assignment{}
			for _, v := range prog.Vars() {
				if bits>>(uint(v)&63)&1 == 1 {
					fs.Add(v)
					asn[v] = false
				}
			}
			sc := &Scratch{}
			want := fac.Eval(root, asn)
			if got := prog.Eval(fs, sc); got != want {
				t.Fatalf("root %d: compiled eval %v, factory eval %v (bits %#x)", ri, got, want, bits)
			}
			// Same program with the decision diagram attached must agree
			// too (the query plane's served form). Bounded so a fuzzed
			// formula with a pathological BDD can't stall the run.
			if p.NumNodes() <= 256 {
				prog.attachDecisions(fac.ExportBDD(root))
				if got := prog.Eval(fs, sc); got != want {
					t.Fatalf("root %d: decision eval %v, factory eval %v (bits %#x)", ri, got, want, bits)
				}
			}
		}
	})
}

// FuzzCompileStore feeds arbitrary bytes through the store loader and
// both compile paths: a cold CompileStore and a CompileStoreFrom against
// the fabricated store's snapshot, so mutations of the seed exercise
// reuse. Neither may panic; they must succeed or fail together, and
// when they succeed they must compile the same snapshot — the same
// MinFail, ReachUp and ClassMinFail per class, the same impact index.
func FuzzCompileStore(f *testing.F) {
	seedStore := fabricateStore(f)
	prev, err := CompileStore(seedStore)
	if err != nil {
		f.Fatal(err)
	}
	seed, err := json.Marshal(seedStore)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(emptyUniverseStore))
	f.Add([]byte(`{"k":1,"links":[{"a":"a","b":"b"}],"classes":[]}`))

	// One file per worker process, rewritten by every call: a fresh
	// t.TempDir per input stalls the fuzzer.
	path := filepath.Join(f.TempDir(), "store.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := hoyan.LoadResultStore(path)
		var ce *hoyan.CorruptStoreError
		if err != nil && !(errors.As(err, &ce) && ce.Usable) {
			return
		}
		// Bound the BDD work a fuzzed condition can demand, as
		// FuzzCompiledEval does.
		for _, rec := range st.Classes {
			if rec.Conds != nil && rec.Conds.NumNodes() > 256 {
				return
			}
		}
		cold, errCold := CompileStore(st)
		incr, errIncr := CompileStoreFrom(prev, st)
		if (errCold == nil) != (errIncr == nil) {
			t.Fatalf("cold compile error %v, incremental compile error %v", errCold, errIncr)
		}
		if errCold != nil {
			return
		}
		if d := diffSnapshots(incr, cold); d != "" {
			t.Fatalf("incremental compile differs from cold: %s", d)
		}
	})
}
