package hoyan

import (
	"os"
	"strings"
	"testing"

	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/netaddr"
	"hoyan/internal/topo"
)

// TestModularMatchesMonolithic pins the tentpole correctness contract:
// a modular sweep (region passes stitched through interface summaries)
// produces a byte-identical report to the monolithic sweep it replaces —
// same prefixes, same violations, same weakest routers, same minimal
// failure counts — at K=1 and K=3. gen.Small runs under -short;
// gen.Medium is the ungated paper-scale check; gen.Full joins under
// HOYAN_SWEEP_FULL=1 like the classed-identity sweep.
func TestModularMatchesMonolithic(t *testing.T) {
	cases := []struct {
		name   string
		params gen.Params
		heavy  bool
	}{
		{"small", gen.Small(), false},
		{"medium", gen.Medium(), false},
		{"full", gen.Full(), true},
	}
	for _, tc := range cases {
		if tc.name != "small" && testing.Short() {
			continue
		}
		if tc.heavy && os.Getenv("HOYAN_SWEEP_FULL") != "1" {
			continue
		}
		n, _ := wanNetworkFrom(t, tc.params)
		for _, k := range []int{1, 3} {
			mono, err := n.Sweep(Options{K: k}, 4)
			if err != nil {
				t.Fatalf("%s k=%d: monolithic sweep: %v", tc.name, k, err)
			}
			mod, err := n.Sweep(Options{K: k, Modular: true}, 4)
			if err != nil {
				t.Fatalf("%s k=%d: modular sweep: %v", tc.name, k, err)
			}
			if mod.Modular == nil {
				t.Fatalf("%s k=%d: modular sweep reported no ModularStats", tc.name, k)
			}
			if mod.Modular.Fallback {
				t.Fatalf("%s k=%d: modular sweep fell back entirely: %v", tc.name, k, mod.Modular.Notes)
			}
			// At K=1 every echo route's exclusive guard needs at least two
			// failures, so no class should refuse. At K>=2 the generated WAN
			// legitimately produces a few refusals: AllowASLoop vendors
			// (VendorBeta) re-admit routes that hairpin through an external
			// gateway, and the echoed route crosses two cuts — the two-round
			// schedule loudly falls back to monolithic for those classes,
			// which is the contract. Identity still has to hold either way;
			// refusals just must stay a small minority so the modular path
			// is genuinely exercised.
			if k == 1 && mod.Modular.Refused != 0 {
				t.Fatalf("%s k=%d: expected no refusals at K=1, got %d: %v",
					tc.name, k, mod.Modular.Refused, mod.Modular.Notes)
			}
			if mod.Modular.Refused*4 > mod.Modular.Passes {
				t.Fatalf("%s k=%d: %d of %d passes refused — modular path barely exercised: %v",
					tc.name, k, mod.Modular.Refused, mod.Modular.Passes, mod.Modular.Notes)
			}
			if want := tc.params.Regions; mod.Modular.Regions != want {
				t.Fatalf("%s k=%d: partition found %d regions, want %d", tc.name, k, mod.Modular.Regions, want)
			}
			diffSweepReports(t, tc.name+"/modular-vs-monolithic", mono, mod)
		}
	}
}

// TestModularFallbackWithoutRegions pins the global refusal path: a WAN
// where one BGP speaker declares no region has no usable partition, so
// the modular sweep loudly falls back to monolithic in its entirety —
// and still produces the byte-identical report.
func TestModularFallbackWithoutRegions(t *testing.T) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	n := NewNetwork()
	for _, node := range w.Net.Nodes() {
		region := node.Region
		if node.Name == "core-r0-0" {
			region = ""
		}
		n.AddRouter(Router{Name: node.Name, AS: node.AS, Vendor: node.Vendor,
			Region: region, Group: node.Group})
	}
	for _, l := range w.Net.Links() {
		n.AddLink(w.Net.Node(l.A).Name, w.Net.Node(l.B).Name, l.Weight)
	}
	for name, cfg := range w.Snap {
		n.SetConfig(name, config.Write(cfg))
	}
	mono, err := n.Sweep(Options{K: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := n.Sweep(Options{K: 1, Modular: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mod.Modular == nil || !mod.Modular.Fallback {
		t.Fatalf("expected whole-sweep fallback, got %+v", mod.Modular)
	}
	if !strings.Contains(strings.Join(mod.Modular.Notes, "\n"), "no region") {
		t.Fatalf("fallback note does not explain the missing region: %v", mod.Modular.Notes)
	}
	diffSweepReports(t, "region-less fallback", mono, mod)
}

// TestModularRefusesCrossRegionFamily pins the per-class refusal path: a
// prefix family that originates in two regions has no home region, so
// its class — and only its class — is refused with a note naming both
// regions, while the rest of the sweep stays modular. Identity holds
// either way.
func TestModularRefusesCrossRegionFamily(t *testing.T) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	// gw-r0-0's first prefix also gets a static on a region-1 router:
	// the family now originates in reg0 (the gateway) and reg1 (the
	// static), which FamilyHome must refuse to place.
	leaked := netaddr.MustParse("10.0.0.0/24")
	if w.PrefixOwners[leaked] != "gw-r0-0" {
		t.Fatalf("generator layout changed: 10.0.0.0/24 owned by %s", w.PrefixOwners[leaked])
	}
	man := w.Snap["man-r1-0"]
	if man == nil {
		t.Fatal("generator layout changed: no man-r1-0")
	}
	man.Statics = append(man.Statics, config.StaticRoute{Prefix: leaked, NextHop: "core-r1-0"})
	n := NewNetwork()
	for _, node := range w.Net.Nodes() {
		n.AddRouter(Router{Name: node.Name, AS: node.AS, Vendor: node.Vendor,
			Region: node.Region, Group: node.Group})
	}
	for _, l := range w.Net.Links() {
		n.AddLink(w.Net.Node(l.A).Name, w.Net.Node(l.B).Name, l.Weight)
	}
	for name, cfg := range w.Snap {
		n.SetConfig(name, config.Write(cfg))
	}
	mono, err := n.Sweep(Options{K: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := n.Sweep(Options{K: 1, Modular: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mod.Modular == nil || mod.Modular.Fallback {
		t.Fatalf("expected a partial refusal, not whole-sweep fallback: %+v", mod.Modular)
	}
	if mod.Modular.Refused == 0 {
		t.Fatal("cross-region family was not refused")
	}
	notes := strings.Join(mod.Modular.Notes, "\n")
	if !strings.Contains(notes, "originates in both") {
		t.Fatalf("refusal note does not explain the span: %v", mod.Modular.Notes)
	}
	diffSweepReports(t, "cross-region family refusal", mono, mod)
}

// TestModularAuditsMatchMonolithic pins the audit half of a modular
// sweep: with every member audited, the audits re-simulate monolithically
// against the representatives the region passes produced, and the report
// still equals the monolithic one. gen.Medium joins outside -short.
func TestModularAuditsMatchMonolithic(t *testing.T) {
	cases := []struct {
		name   string
		params gen.Params
	}{{"small", gen.Small()}, {"medium", gen.Medium()}}
	for _, tc := range cases {
		if tc.name != "small" && testing.Short() {
			continue
		}
		n, _ := wanNetworkFrom(t, tc.params)
		mono, err := n.Sweep(Options{K: 3}, 4)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := n.Sweep(Options{K: 3, Modular: true, AuditSample: 1}, 4)
		if err != nil {
			t.Fatalf("%s: modular audited sweep: %v", tc.name, err)
		}
		if mod.Audited == 0 {
			t.Fatalf("%s: AuditSample 1 audited no member", tc.name)
		}
		if mod.Modular == nil || mod.Modular.Fallback {
			t.Fatalf("%s: expected a modular sweep, got %+v", tc.name, mod.Modular)
		}
		diffSweepReports(t, tc.name+"/modular audited vs monolithic", mono, mod)
	}
}

// TestModularIncrementalMatchesCold pins replay audits under a modular
// sweep: after one policy perturbation, an incremental modular sweep
// that audits every replayed class equals a cold monolithic sweep.
func TestModularIncrementalMatchesCold(t *testing.T) {
	n, w := wanNetworkFrom(t, gen.Small())
	_, store, err := n.SweepBaseline(Options{K: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	applyPerturbation(t, n, gen.Perturb(w, 3, 1)[0])
	cold, err := n.Sweep(Options{K: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	incr, err := n.Sweep(Options{K: 2, Modular: true, Baseline: store, AuditSample: 1}, 4)
	if err != nil {
		t.Fatalf("incremental modular sweep: %v", err)
	}
	if incr.Modular == nil || incr.Invalidation == nil || incr.Invalidation.ReplaysAudited == 0 {
		t.Fatalf("expected audited replays under a modular sweep: modular %+v, invalidation %+v", incr.Modular, incr.Invalidation)
	}
	diffSweepReports(t, "incremental modular vs cold", cold, incr)
}

// TestScanVerdictsAllocBudget measures the //hoyan:hotpath annotation on
// the summary evaluation path dynamically: scanVerdicts runs once per
// simulated prefix over every BGP speaker's verdict, and the fold shared
// by sweepOne and the modular merge must not allocate at all.
func TestScanVerdictsAllocBudget(t *testing.T) {
	vs := make([]core.Verdict, 512)
	for i := range vs {
		vs[i] = core.Verdict{Node: topo.NodeID(i), Min: i % 5, Reachable: i%7 != 0}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		minIdx, nviol := scanVerdicts(vs, 3)
		if minIdx < -1 || nviol < 0 {
			t.Error("unreachable")
		}
	})
	if allocs != 0 {
		t.Fatalf("scanVerdicts allocates %v times per run, want 0", allocs)
	}
}
