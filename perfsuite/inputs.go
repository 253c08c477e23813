package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"sync"

	"hoyan/internal/behavior"
	"hoyan/internal/core"
	"hoyan/internal/dist"
	"hoyan/internal/gen"
	"hoyan/internal/httpapi"
	"hoyan/internal/logic"
)

// k is the failure budget every workload verifies under.
const k = 3

func coreOptions() core.Options {
	o := core.DefaultOptions()
	o.K = k
	return o
}

// wanInputs is the generated WAN with the facts every workload needs.
type wanInputs struct {
	w        *gen.WAN
	model    *core.Model
	classes  []core.PrefixClass
	speakers []string // BGP speakers, node order
	prefixes []string // announced prefixes
	regions  []string
}

func generate(p gen.Params) (*wanInputs, error) {
	w, err := gen.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("generate WAN: %w", err)
	}
	m, err := core.Assemble(w.Net, w.Snap, behavior.TrueProfiles())
	if err != nil {
		return nil, fmt.Errorf("assemble WAN: %w", err)
	}
	in := &wanInputs{w: w, model: m, classes: m.Classes()}
	for _, n := range w.Net.Nodes() {
		if m.Configs[n.ID].BGP != nil {
			in.speakers = append(in.speakers, n.Name)
		}
	}
	for _, p := range m.AnnouncedPrefixes() {
		in.prefixes = append(in.prefixes, p.String())
	}
	if pt, err := core.NewPartition(m); err == nil {
		for i := 0; i < pt.NumRegions(); i++ {
			in.regions = append(in.regions, pt.RegionName(i))
		}
	}
	return in, nil
}

// describe records the WAN's size among a run's input properties.
func (in *wanInputs) describe(o *outcome) {
	o.inputs["routers"] = in.w.Net.NumNodes()
	o.inputs["links"] = len(in.w.Net.Links())
	o.inputs["prefixes"] = len(in.prefixes)
	o.inputs["classes"] = len(in.classes)
	o.inputs["regions"] = len(in.regions)
	o.inputs["bgp_speakers"] = len(in.speakers)
	o.inputs["wan_seed"] = in.w.Params.Seed
	o.inputs["k"] = k
}

// linkName is the canonical a~b name of a link (endpoints sorted), the
// form the query plane resolves.
func linkName(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "~" + b
}

// push is one configuration change sent through POST /v1/resweep.
type push struct {
	Kind   string   `json:"kind"`
	Device string   `json:"device"`
	Lines  []string `json:"lines"`
	Desc   string   `json:"description"`
}

// pushSeries is the seeded gen.Perturb series restricted to the kinds
// HTTP can push (policy and static): link changes are topology edits
// the resweep endpoint does not take.
func pushSeries(w *gen.WAN, seed int64, n int) []push {
	var out []push
	for _, p := range gen.Perturb(w, seed, 3*n) {
		if p.Kind == "link" {
			continue
		}
		out = append(out, push{Kind: p.Kind, Device: p.Device, Lines: p.Lines, Desc: p.Description})
		if len(out) == n {
			break
		}
	}
	return out
}

// query is one deck entry with the answer simulation expects.
type query struct {
	Kind   string
	Prefix string
	Router string
	Failed []string // link names, at most K
	Link   string
	path   string

	reachable bool
	minFail   int
	// mustInclude lists, for an impact query, the prefixes whose
	// reachability condition at some speaker semantically depends on the
	// link: the answer must contain each of them.
	mustInclude []string
}

// buildDeck draws the seeded 60/20/20 reach/minfail/impact deck. Reach
// queries fail up to K random links; impact queries cycle over a small
// seeded set of links.
func buildDeck(in *wanInputs, seed int64, n int) []query {
	rng := rand.New(rand.NewSource(seed))
	links := in.w.Net.Links()
	name := func(i int) string {
		l := links[i]
		return linkName(in.w.Net.Node(l.A).Name, in.w.Net.Node(l.B).Name)
	}
	impactLinks := rng.Perm(len(links))
	if len(impactLinks) > 16 {
		impactLinks = impactLinks[:16]
	}
	deck := make([]query, 0, n)
	for i := 0; i < n; i++ {
		var q query
		v := url.Values{}
		switch r := rng.Intn(10); {
		case r < 6:
			q = query{Kind: "reach", Prefix: in.prefixes[rng.Intn(len(in.prefixes))],
				Router: in.speakers[rng.Intn(len(in.speakers))]}
			seen := map[int]bool{}
			for j, nf := 0, rng.Intn(k+1); j < nf; j++ {
				li := rng.Intn(len(links))
				if !seen[li] {
					seen[li] = true
					q.Failed = append(q.Failed, name(li))
				}
			}
			v.Set("router", q.Router)
			if len(q.Failed) > 0 {
				v.Set("failed", strings.Join(q.Failed, ","))
			}
		case r < 8:
			q = query{Kind: "minfail", Prefix: in.prefixes[rng.Intn(len(in.prefixes))]}
			if rng.Intn(2) == 0 {
				q.Router = in.speakers[rng.Intn(len(in.speakers))]
				v.Set("router", q.Router)
			}
		default:
			q = query{Kind: "impact", Link: name(impactLinks[rng.Intn(len(impactLinks))])}
			v.Set("link", q.Link)
		}
		v.Set("kind", q.Kind)
		if q.Prefix != "" {
			v.Set("prefix", q.Prefix)
		}
		q.path = "/v1/query?" + v.Encode()
		deck = append(deck, q)
	}
	return deck
}

// expectDeck computes every deck answer by simulation, independently of
// the query plane — the equivalence TestQueryMatchesSimulation pins: one
// fresh representative run per class, conditions evaluated under the
// query's failure set, min-failures by the factory's exact BDD walk, and
// impact by semantic dependence on the link. Classes are spread over
// `threads` simulators; each fills only its own classes' deck entries.
func expectDeck(in *wanInputs, deck []query, threads int) error {
	m := in.model
	shared := core.NewShared(m, coreOptions())
	classOf := map[string]int{}
	for ci, cls := range in.classes {
		for _, p := range cls.Members {
			classOf[p.String()] = ci
		}
	}
	linkVar := map[string]logic.Var{}
	for _, l := range in.w.Net.Links() {
		// Parallel links share a name; like the query plane, the first
		// link in ID order answers for it.
		name := linkName(in.w.Net.Node(l.A).Name, in.w.Net.Node(l.B).Name)
		if _, dup := linkVar[name]; !dup {
			linkVar[name] = logic.Var(l.ID)
		}
	}
	var impactLinks []string
	seen := map[string]bool{}
	for _, q := range deck {
		if q.Kind == "impact" && !seen[q.Link] {
			seen[q.Link] = true
			impactLinks = append(impactLinks, q.Link)
		}
	}
	// depends[ci] lists the impact links class ci's condition depends on.
	depends := make([]map[string]bool, len(in.classes))
	errs := make([]error, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			sim := shared.NewSimulator()
			for ci := t; ci < len(in.classes); ci += threads {
				if ci != t {
					sim.Reset()
				}
				rep := in.classes[ci].Rep
				res, err := sim.Run(rep)
				if err != nil {
					errs[t] = fmt.Errorf("simulate %s: %w", rep, err)
					return
				}
				pt := core.AnyRouteTo(rep)
				cond := func(router string) logic.F {
					node, _ := m.Net.NodeByName(router)
					return res.ReachCond(node.ID, pt)
				}
				for i := range deck {
					q := &deck[i]
					if q.Kind == "impact" || classOf[q.Prefix] != ci {
						continue
					}
					switch {
					case q.Kind == "reach":
						asn := logic.Assignment{}
						for _, l := range q.Failed {
							asn[linkVar[l]] = false
						}
						q.reachable = sim.F.Eval(cond(q.Router), asn)
					case q.Router != "":
						q.minFail = minFailures(sim.F, cond(q.Router))
					default:
						agg := logic.Unfailable
						for _, r := range in.speakers {
							c := cond(r)
							if sim.F.Eval(c, nil) {
								agg = min(agg, sim.F.MinFailuresToViolate(c))
							}
						}
						if agg > k {
							agg = -1
						}
						q.minFail = agg
					}
				}
				depends[ci] = map[string]bool{}
				for _, l := range impactLinks {
					dead := map[logic.Var]logic.F{linkVar[l]: logic.False}
					for _, r := range in.speakers {
						c := cond(r)
						if !sim.F.Equivalent(c, sim.F.Substitute(c, dead)) {
							depends[ci][l] = true
							break
						}
					}
				}
			}
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i := range deck {
		q := &deck[i]
		if q.Kind != "impact" {
			continue
		}
		for ci, cls := range in.classes {
			if depends[ci][q.Link] {
				for _, p := range cls.Members {
					q.mustInclude = append(q.mustInclude, p.String())
				}
			}
		}
	}
	return nil
}

// minFailures is /v1/route's per-router convention: 0 when unreachable
// with all links up, -1 when the condition survives the budget.
func minFailures(f *logic.Factory, c logic.F) int {
	if !f.Eval(c, nil) {
		return 0
	}
	if mf := f.MinFailuresToViolate(c); mf <= k {
		return mf
	}
	return -1
}

// check compares one /v1/query answer with the simulated expectation.
func (q *query) check(r *httpapi.QueryResponse, universe map[string]bool) error {
	switch q.Kind {
	case "reach":
		if r.Reachable == nil || *r.Reachable != q.reachable {
			return fmt.Errorf("reach %s@%s failed=%v: got %v, simulation says %v", q.Prefix, q.Router, q.Failed, r.Reachable, q.reachable)
		}
	case "minfail":
		if r.MinFailures == nil || *r.MinFailures != q.minFail {
			return fmt.Errorf("minfail %s@%s: got %v, simulation says %d", q.Prefix, q.Router, r.MinFailures, q.minFail)
		}
	case "impact":
		got := map[string]bool{}
		for _, p := range r.Prefixes {
			if !universe[p] {
				return fmt.Errorf("impact %s: %s is not an announced prefix", q.Link, p)
			}
			got[p] = true
		}
		if !sort.StringsAreSorted(r.Prefixes) {
			return fmt.Errorf("impact %s: prefixes not sorted", q.Link)
		}
		for _, p := range q.mustInclude {
			if !got[p] {
				return fmt.Errorf("impact %s: misses %s, whose condition depends on the link", q.Link, p)
			}
		}
	}
	return nil
}

// verdictMap is per-prefix, per-router verdicts sorted by router: the
// shape dist.Result.ByPrefix has after RunModular.
type verdictMap map[string][]dist.RouterSummary

// localVerdicts is the local monolithic report audit-dist is checked
// against: every class representative simulated in process, folded into
// per-router verdicts the way a dist worker does, replicated to members.
func localVerdicts(in *wanInputs, threads int) (verdictMap, error) {
	m := in.model
	shared := core.NewShared(m, coreOptions())
	per := make([][]dist.RouterSummary, len(in.classes))
	errs := make([]error, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			sim := shared.NewSimulator()
			for ci := t; ci < len(in.classes); ci += threads {
				if ci != t {
					sim.Reset()
				}
				rep := in.classes[ci].Rep
				res, err := sim.Run(rep)
				if err != nil {
					errs[t] = fmt.Errorf("simulate %s: %w", rep, err)
					return
				}
				pat := core.AnyRouteTo(rep)
				var out []dist.RouterSummary
				for _, node := range m.Net.Nodes() {
					if m.Configs[node.ID].BGP == nil {
						continue
					}
					rs := dist.RouterSummary{Router: node.Name, Reachable: res.Reachable(node.ID, pat)}
					if rs.Reachable {
						min, _ := res.MinFailuresToLose(node.ID, pat)
						if min > k {
							min = -1
						}
						rs.MinFailures = min
					}
					out = append(out, rs)
				}
				sort.Slice(out, func(i, j int) bool { return out[i].Router < out[j].Router })
				per[ci] = out
			}
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	vm := verdictMap{}
	for ci, cls := range in.classes {
		for _, p := range cls.Members {
			vm[p.String()] = per[ci]
		}
	}
	return vm, nil
}

// diffVerdicts names the first difference between two verdict maps.
func diffVerdicts(want, got verdictMap) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d prefixes verified, want %d", len(got), len(want))
	}
	for p, ws := range want {
		gs, ok := got[p]
		if !ok {
			return fmt.Errorf("%s missing", p)
		}
		if len(gs) != len(ws) {
			return fmt.Errorf("%s: %d router verdicts, want %d", p, len(gs), len(ws))
		}
		for i := range ws {
			if gs[i] != ws[i] {
				return fmt.Errorf("%s at %s: got %+v, want %+v", p, ws[i].Router, gs[i], ws[i])
			}
		}
	}
	return nil
}
