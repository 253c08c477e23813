package qc

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hoyan"
	"hoyan/internal/gen"
	"hoyan/internal/logic"
)

// diffSnapshots describes the first difference between two snapshots,
// or returns "" when they are equal in everything but CompileTime and
// Reused: classes (members, routers, programs with their instructions
// and decisions, MinFail, ReachUp, ClassMinFail), the impact and prefix
// indexes, and the remaining stats.
func diffSnapshots(a, b *Snapshot) string {
	if len(a.Classes) != len(b.Classes) {
		return fmt.Sprintf("%d classes vs %d", len(a.Classes), len(b.Classes))
	}
	for ci := range a.Classes {
		ca, cb := a.Classes[ci], b.Classes[ci]
		for ri := range ca.Progs {
			if ri < len(cb.Progs) && !reflect.DeepEqual(ca.Progs[ri], cb.Progs[ri]) {
				return fmt.Sprintf("class %d (%v) program %d differs", ci, ca.Members, ri)
			}
		}
		if !reflect.DeepEqual(ca, cb) {
			return fmt.Sprintf("class %d (%v) differs:\n %+v\n %+v", ci, ca.Members, *ca, *cb)
		}
	}
	if !reflect.DeepEqual(a.impact, b.impact) {
		return fmt.Sprintf("impact index differs:\n %v\n %v", a.impact, b.impact)
	}
	if !reflect.DeepEqual(a.prefixClass, b.prefixClass) {
		return fmt.Sprintf("prefix index differs:\n %v\n %v", a.prefixClass, b.prefixClass)
	}
	sa, sb := a.Stats, b.Stats
	sa.CompileTime, sb.CompileTime = 0, 0
	sa.Reused, sb.Reused = 0, 0
	if sa != sb {
		return fmt.Sprintf("stats differ:\n %+v\n %+v", sa, sb)
	}
	ra, rb := *a, *b
	ra.Stats, rb.Stats = sa, sb
	if !reflect.DeepEqual(ra, rb) {
		return "snapshots differ outside classes, indexes and stats"
	}
	return ""
}

// TestCompileStoreFromMatchesCold is the incremental compile's
// correctness gate: across a seeded gen.Perturb series (policy, static,
// then a topology change) pushed through incremental sweeps, compiling
// each new store from the previous snapshot must produce exactly the
// snapshot a cold compile does, and must reuse at least every class the
// sweep replayed.
func TestCompileStoreFromMatchesCold(t *testing.T) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	n := hoyan.NetworkFrom(w.Net, w.Snap)
	opts := hoyan.Options{K: 2}
	_, store, err := n.SweepBaseline(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := CompileStore(store)
	if err != nil {
		t.Fatal(err)
	}

	reusedAny := false
	for i, step := range gen.Perturb(w, 5, 3) {
		switch step.Kind {
		case "link":
			n.AddLink(step.Link.A, step.Link.B, step.Link.Weight)
		default:
			if err := n.ApplyUpdate(step.Device, step.Lines...); err != nil {
				t.Fatalf("step %d (%s): %v", i, step.Description, err)
			}
		}
		iopts := opts
		iopts.Baseline = store
		rep, next, err := n.SweepBaseline(iopts, 2)
		if err != nil {
			t.Fatalf("step %d (%s): %v", i, step.Description, err)
		}
		incr, err := CompileStoreFrom(prev, next)
		if err != nil {
			t.Fatalf("step %d (%s): incremental compile: %v", i, step.Description, err)
		}
		cold, err := CompileStore(next)
		if err != nil {
			t.Fatalf("step %d (%s): cold compile: %v", i, step.Description, err)
		}
		if d := diffSnapshots(incr, cold); d != "" {
			t.Fatalf("step %d (%s): incremental compile differs from cold: %s", i, step.Description, d)
		}
		if cold.Stats.Reused != 0 {
			t.Fatalf("step %d: cold compile reports %d reused classes", i, cold.Stats.Reused)
		}
		replayed := rep.Invalidation.ClassesReplayed
		if incr.Stats.Reused < replayed {
			t.Fatalf("step %d (%s): reused %d classes, sweep replayed %d", i, step.Description, incr.Stats.Reused, replayed)
		}
		if step.Kind == "link" && incr.Stats.Reused != 0 {
			t.Fatalf("step %d (%s): new link universe, yet %d classes reused", i, step.Description, incr.Stats.Reused)
		}
		reusedAny = reusedAny || incr.Stats.Reused > 0
		t.Logf("step %d %s: %d of %d classes reused, %d replayed", i, step.Description, incr.Stats.Reused, incr.Stats.Classes, replayed)
		store, prev = next, incr
	}
	if !reusedAny {
		t.Fatal("no step reused a class; the incremental compile never engaged")
	}
}

// cloneStore copies a store deeply enough for its links and class
// records to be edited without touching the original.
func cloneStore(st *hoyan.ResultStore) *hoyan.ResultStore {
	out := *st
	out.Links = append([]hoyan.StoredLink(nil), st.Links...)
	out.Classes = append([]hoyan.ClassRecord(nil), st.Classes...)
	return &out
}

// TestCompileStoreFromReuseRule pins each clause of the reuse rule on
// the fabricated two-class store: identical records are shared, a
// changed link universe or a changed condition compiles afresh, and
// record validation runs even when the previous snapshot holds the
// class.
func TestCompileStoreFromReuseRule(t *testing.T) {
	prev, err := CompileStore(fabricateStore(t))
	if err != nil {
		t.Fatal(err)
	}
	same, err := CompileStoreFrom(prev, fabricateStore(t))
	if err != nil {
		t.Fatal(err)
	}
	if same.Stats.Reused != 2 || same.Classes[0] != prev.Classes[0] || same.Classes[1] != prev.Classes[1] {
		t.Fatalf("identical store: reused %d, classes shared %v %v", same.Stats.Reused,
			same.Classes[0] == prev.Classes[0], same.Classes[1] == prev.Classes[1])
	}

	for name, edit := range map[string]func(st *hoyan.ResultStore){
		"link added":     func(st *hoyan.ResultStore) { st.Links = append(st.Links, hoyan.StoredLink{A: "a", B: "c"}) },
		"links reversed": func(st *hoyan.ResultStore) { st.Links[0], st.Links[3] = st.Links[3], st.Links[0] },
	} {
		st := cloneStore(fabricateStore(t))
		edit(st)
		got, err := CompileStoreFrom(prev, st)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Stats.Reused != 0 {
			t.Fatalf("%s: %d classes reused across a changed link universe", name, got.Stats.Reused)
		}
		cold, err := CompileStore(st)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffSnapshots(got, cold); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
	}

	// Same members and routers, another condition: class 0 recompiles,
	// class 1 is still shared.
	st := cloneStore(fabricateStore(t))
	f := logic.NewFactory()
	st.Classes[0].Conds = f.Export(f.Var(2), logic.True)
	got, err := CompileStoreFrom(prev, st)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Reused != 1 || got.Classes[0] == prev.Classes[0] || got.Classes[1] != prev.Classes[1] {
		t.Fatalf("changed condition: reused %d", got.Stats.Reused)
	}
	if i, _ := got.Classes[0].Router("r1"); got.Classes[0].MinFail[i] != 1 {
		t.Fatalf("recompiled class 0 r1 minfail = %d, want 1", got.Classes[0].MinFail[i])
	}

	// Another router list over the same condition recompiles too.
	st = cloneStore(fabricateStore(t))
	st.Classes[1].CondRouters = []string{"r2", "r1"}
	got, err = CompileStoreFrom(prev, st)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Reused != 1 || got.Classes[1] == prev.Classes[1] {
		t.Fatalf("changed routers: reused %d", got.Stats.Reused)
	}

	// Validation precedes reuse.
	st = cloneStore(fabricateStore(t))
	st.Classes[1].Conds = nil
	if _, err := CompileStoreFrom(prev, st); err == nil {
		t.Fatal("record without conditions compiled because the previous snapshot held its class")
	}
	st = cloneStore(fabricateStore(t))
	st.Classes[0].CondRouters = st.Classes[0].CondRouters[:1]
	if _, err := CompileStoreFrom(prev, st); err == nil {
		t.Fatal("root/router count mismatch compiled because the previous snapshot held its class")
	}
	st = cloneStore(fabricateStore(t))
	st.Classes[1].Members = []string{"10.0.0.0/24"}
	if _, err := CompileStoreFrom(prev, st); err == nil {
		t.Fatal("duplicate prefix membership compiled")
	}
}

// emptyUniverseStore is a loadable store whose only condition mentions
// link variable 0 while the store lists no links at all.
const emptyUniverseStore = `{"k":1,"links":[],"classes":[{"fingerprint":"x","members":["10.0.0.0/24"],"summary":{"prefix":"10.0.0.0/24"},"taint_devices":[],"cond_routers":["r1"],"conds":{"n":[[1,0,0,0]],"r":[2]}}]}`

// TestCompileStoreLinkUniverse: variable i is stored link i, so a
// condition mentioning a variable past the store's links is an error —
// and an empty universe admits no variable at all, which once panicked
// in the impact index instead.
func TestCompileStoreLinkUniverse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	if err := os.WriteFile(path, []byte(emptyUniverseStore), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := hoyan.LoadResultStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileStore(st); err == nil {
		t.Fatal("condition over variable 0 compiled against an empty link universe")
	}

	st = cloneStore(fabricateStore(t))
	f := logic.NewFactory()
	st.Classes[1].Conds = f.Export(f.Var(4), logic.False) // four links: 0..3
	if _, err := CompileStore(st); err == nil {
		t.Fatal("condition over variable 4 compiled against four links")
	}
}
