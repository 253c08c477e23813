package dist

import (
	"net"
	"testing"

	"hoyan/internal/behavior"
	"hoyan/internal/core"
	"hoyan/internal/gen"
)

// startModularWorkers is startWorkers with MaxShared sized for a modular
// session: one region Shared per region plus the global Shared the
// monolithic fallback builds, per failure budget.
func startModularWorkers(t *testing.T, w *gen.WAN, n, maxShared int) ([]string, func()) {
	t.Helper()
	var addrs []string
	var stops []func()
	for i := 0; i < n; i++ {
		wk := NewWorker(w.Net, w.Snap)
		wk.MaxShared = maxShared
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- wk.Serve(ln) }()
		addrs = append(addrs, ln.Addr().String())
		stops = append(stops, func() {
			wk.Close()
			<-done
		})
	}
	return addrs, func() {
		for _, s := range stops {
			s()
		}
	}
}

// TestRunModularMatchesRunClasses checks the distributed modular
// dispatch against the monolithic class run it replaces: same class
// partition, same workers, verdict-for-verdict identical summaries. K=1
// must need no fallback at all; K=3 exercises the refusal path (the
// AllowASLoop echo routes cross a second cut on gen.Medium, a genuine
// monolithic behavior the two-round schedule refuses to approximate) and
// so proves refused representatives land on byte-identical monolithic
// answers.
func TestRunModularMatchesRunClasses(t *testing.T) {
	w, err := gen.Generate(gen.Medium())
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.Assemble(w.Net, w.Snap, behavior.TrueProfiles())
	if err != nil {
		t.Fatal(err)
	}
	pt, err := core.NewPartition(model)
	if err != nil {
		t.Fatal(err)
	}
	var regions []string
	for i := 0; i < pt.NumRegions(); i++ {
		regions = append(regions, pt.RegionName(i))
	}

	var stringClasses [][]string
	var modClasses []ModularClass
	for _, cl := range model.Classes() {
		var ms []string
		for _, p := range cl.Members {
			ms = append(ms, p.String())
		}
		stringClasses = append(stringClasses, ms)
		home := ""
		if hi, err := pt.FamilyHome(model, cl.Rep); err == nil {
			home = pt.RegionName(hi)
		}
		modClasses = append(modClasses, ModularClass{Members: ms, Home: home})
	}

	addrs, stop := startModularWorkers(t, w, 2, len(regions)+4)
	defer stop()
	coord := &Coordinator{Addrs: addrs}

	for _, k := range []int{1, 3} {
		mono, err := coord.RunClasses(stringClasses, k)
		if err != nil {
			t.Fatalf("k=%d: RunClasses: %v", k, err)
		}
		mod, err := coord.RunModular(modClasses, regions, k)
		if err != nil {
			t.Fatalf("k=%d: RunModular: %v", k, err)
		}
		if mod.ModularPasses == 0 {
			t.Fatalf("k=%d: no modular passes dispatched", k)
		}
		if k == 1 && mod.ModularRefused != 0 {
			t.Fatalf("k=1: %d representatives refused, want 0", mod.ModularRefused)
		}
		if mod.Classes != mono.Classes {
			t.Fatalf("k=%d: classes %d vs %d", k, mod.Classes, mono.Classes)
		}
		if len(mod.ByPrefix) != len(mono.ByPrefix) {
			t.Fatalf("k=%d: completed %d vs %d prefixes", k, len(mod.ByPrefix), len(mono.ByPrefix))
		}
		for p, want := range mono.ByPrefix {
			got, ok := mod.ByPrefix[p]
			if !ok {
				t.Fatalf("k=%d: %s missing from modular result", k, p)
			}
			sorted := sortedByRouter(want)
			if len(got) != len(sorted) {
				t.Fatalf("k=%d: %s: %d vs %d router summaries", k, p, len(got), len(sorted))
			}
			for i := range sorted {
				if got[i] != sorted[i] {
					t.Fatalf("k=%d: %s at %s: modular %+v vs monolithic %+v",
						k, p, sorted[i].Router, got[i], sorted[i])
				}
			}
		}
		t.Logf("k=%d: %d classes, %d modular passes, %d refused", k, mod.Classes, mod.ModularPasses, mod.ModularRefused)
	}
}

// TestRunModularWithoutPartition pins the dispatch a model with no
// usable cut gets: every class with an empty Home and no regions runs as
// one monolithic pass, counted as refused, and matches RunClasses.
func TestRunModularWithoutPartition(t *testing.T) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.Assemble(w.Net, w.Snap, behavior.TrueProfiles())
	if err != nil {
		t.Fatal(err)
	}
	var stringClasses [][]string
	var modClasses []ModularClass
	for _, cl := range model.Classes() {
		var ms []string
		for _, p := range cl.Members {
			ms = append(ms, p.String())
		}
		stringClasses = append(stringClasses, ms)
		modClasses = append(modClasses, ModularClass{Members: ms})
	}
	addrs, stop := startWorkers(t, w, 2)
	defer stop()
	coord := &Coordinator{Addrs: addrs}
	mono, err := coord.RunClasses(stringClasses, 2)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := coord.RunModular(modClasses, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mod.ModularPasses != 0 || mod.ModularRefused != len(modClasses) {
		t.Fatalf("passes %d, refused %d; want 0 and every one of %d classes", mod.ModularPasses, mod.ModularRefused, len(modClasses))
	}
	if len(mod.ByPrefix) != len(mono.ByPrefix) {
		t.Fatalf("completed %d vs %d prefixes", len(mod.ByPrefix), len(mono.ByPrefix))
	}
	for p, want := range mono.ByPrefix {
		want = sortedByRouter(want)
		got := mod.ByPrefix[p]
		if len(got) != len(want) {
			t.Fatalf("%s: %d vs %d router summaries", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s at %s: modular %+v vs monolithic %+v", p, want[i].Router, got[i], want[i])
			}
		}
	}
}
