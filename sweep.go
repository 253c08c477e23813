package hoyan

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"hoyan/internal/core"
	"hoyan/internal/netaddr"
)

// PrefixSummary is the per-prefix outcome of a full sweep.
type PrefixSummary struct {
	Prefix string
	// MinFailures is the smallest failure count that makes the prefix
	// unreachable somewhere it should be reachable (-1 when within the
	// budget nothing breaks it).
	MinFailures int
	// WeakestRouter is where that minimal break happens.
	WeakestRouter string
	// SimTime is the per-prefix simulation time (the Figure 8 sample).
	// Class members replicated from a representative report carry the
	// representative's time; prefixes replayed from a baseline store
	// report 0, since they were not simulated this run.
	SimTime time.Duration
}

// SweepReport aggregates a whole-network verification run.
type SweepReport struct {
	Prefixes []PrefixSummary
	// Violations collects reachability losses (prefix unreachable at a
	// BGP-speaking router even with all links up).
	Violations []Violation
	Duration   time.Duration
	Workers    int
	// Classes is the size of the dispatch partition: the behavior-class
	// count, or the prefix count when classing is disabled (Options.
	// NoClasses). See DESIGN.md, "Prefix equivalence classes".
	Classes int
	// Audited counts non-representative class members that were fully
	// simulated and diffed against their replicated report
	// (Options.AuditSample). The sweep fails loudly on any divergence.
	Audited int
	// Replayed counts classes whose reports came from the baseline store
	// instead of simulation (incremental mode; see DESIGN.md,
	// "Incremental re-verification").
	Replayed int
	// Invalidation carries the incremental-mode counters and the delta
	// kind histogram; nil for cold sweeps.
	Invalidation *core.InvalidationStats
	// Delta is the model delta an incremental sweep acted on; nil for
	// cold sweeps (and for baseline-vs-NoClasses runs, which cannot plan).
	Delta *core.ModelDelta
	// Modular carries the region-partition counters of a modular sweep
	// (Options.Modular), including every fallback to monolithic
	// simulation; nil for monolithic sweeps.
	Modular *ModularStats
}

// Sweep verifies every announced prefix at every BGP router, sharded over
// `workers` goroutines — the deployment mode of §8 ("50 threads ... Hoyan
// could be run in a distributed way"). The model is assembled exactly
// once and shared read-only across workers together with a snapshot of
// the IGP shortest-path computations (core.Shared); each worker owns only
// the cheap mutable half — formula factory, IGP engine, scratch — so the
// sweep stays embarrassingly parallel like the paper's per-prefix
// parallelism without re-doing prefix-independent work per goroutine.
//
// The unit of work is a prefix behavior class, not a prefix: prefixes the
// assembled model treats identically (core.Model.Classes) share one
// representative simulation whose report is replicated to every member.
// Options.NoClasses restores one-simulation-per-prefix, and
// Options.AuditSample re-simulates a fraction of the members to check the
// replication. workers <= 0 uses GOMAXPROCS.
//
// With Options.Baseline set, the sweep is
// incremental: it diffs the current model against the baseline's,
// re-simulates only the behavior classes the delta can affect, and
// replays the baseline's cached reports for the rest. Results are
// identical to a cold sweep by construction; Options.AuditSample also
// re-simulates a sample of the replayed classes and fails loudly if a
// cached report diverges.
func (n *Network) Sweep(opts Options, workers int) (*SweepReport, error) {
	rep, _, err := n.sweep(opts, workers, false)
	return rep, err
}

// SweepBaseline is Sweep plus baseline capture: it returns a ResultStore
// holding the swept model and every class's report, taint set, and
// portable reachability condition, for use as Options.Baseline in later
// incremental sweeps. When this sweep is itself incremental, replayed
// classes carry their baseline records forward unchanged, so a
// perturbation series pays capture cost only for re-simulated classes.
func (n *Network) SweepBaseline(opts Options, workers int) (*SweepReport, *ResultStore, error) {
	return n.sweep(opts, workers, true)
}

// sweepJob is one unit of worker work — a class (or singleton prefix)
// simulation, or a replay audit of a cached record — and its outcome.
type sweepJob struct {
	members []netaddr.Prefix // simulate members[0], replicate to all
	class   int              // index into classes; -1 when unclassed
	audit   *ClassRecord     // non-nil: replay audit against this record

	sum     PrefixSummary // the representative's report
	viols   []Violation
	audited int // members audited against the report
}

func (n *Network) sweep(opts Options, workers int, capture bool) (*SweepReport, *ResultStore, error) {
	model, err := n.model(&opts)
	if err != nil {
		return nil, nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if capture && opts.NoClasses {
		return nil, nil, fmt.Errorf("hoyan: baseline capture requires behavior classes (NoClasses is set)")
	}
	if capture && opts.Modular {
		// A class record needs one whole-WAN Result (taint set, portable
		// conditions over every BGP speaker); region passes cannot supply it.
		return nil, nil, fmt.Errorf("hoyan: baseline capture requires monolithic simulation (Modular is set)")
	}
	prefixes := model.AnnouncedPrefixes()
	rep := &SweepReport{Workers: workers}
	if len(prefixes) == 0 {
		if capture {
			return rep, newStoreShell(n, opts), nil
		}
		return rep, nil, nil
	}

	var classes []core.PrefixClass
	if !opts.NoClasses {
		classes = model.Classes()
	}

	// Incremental planning: diff against the baseline, split classes into
	// dirty (simulate) and clean (replay the cached record).
	var plan *incrementalPlan
	if opts.Baseline != nil {
		if opts.NoClasses {
			rep.Invalidation = &core.InvalidationStats{
				FullInvalidation: true,
				Notes:            []string{"classing disabled (NoClasses); incremental replay unavailable, sweeping cold"},
			}
		} else {
			plan = planIncremental(model, classes, opts.Baseline, opts)
			rep.Invalidation = plan.stats
			rep.Delta = plan.delta
		}
	}

	// The dispatch list. Replayed classes contribute no job unless
	// selected for a replay audit.
	var jobs []sweepJob
	seed := opts.AuditSeed
	if seed == 0 {
		seed = 1
	}
	switch {
	case opts.NoClasses:
		for _, p := range prefixes {
			jobs = append(jobs, sweepJob{members: []netaddr.Prefix{p}, class: -1})
		}
	default:
		arng := rand.New(rand.NewSource(seed + 1))
		for i, c := range classes {
			if plan == nil || plan.dirty[i] {
				jobs = append(jobs, sweepJob{members: c.Members, class: i})
				continue
			}
			// Replay the cached record; audit a seeded sample of replays.
			rec := plan.records[i]
			rep.Prefixes, rep.Violations = replicate(rep.Prefixes, rep.Violations, rec.Summary, rec.Violations, c.Members)
			rep.Replayed++
			if opts.AuditSample > 0 && arng.Float64() < opts.AuditSample {
				jobs = append(jobs, sweepJob{members: c.Members, class: i, audit: rec})
			}
		}
	}

	// Member-level audit selection happens up front from a seeded source,
	// so the chosen members do not depend on worker count or scheduling.
	audit := map[netaddr.Prefix]bool{}
	if !opts.NoClasses && opts.AuditSample > 0 {
		rng := rand.New(rand.NewSource(seed))
		for _, job := range jobs {
			if job.audit != nil {
				continue
			}
			for _, p := range job.members[1:] {
				if rng.Float64() < opts.AuditSample {
					audit[p] = true
				}
			}
		}
	}

	// Workers beyond the dispatched job count would idle; clamp to what can
	// actually run in parallel (jobs, not prefixes).
	if workers > len(jobs) && len(jobs) > 0 {
		workers = len(jobs)
	}
	rep.Workers = workers

	copts := opts.coreOptions()
	start := time.Now()
	var captured []*ClassRecord
	if capture {
		captured = make([]*ClassRecord, len(classes))
	}
	// The global Shared is built on first use: a modular sweep needs it
	// only for monolithic passes and audits.
	global := sync.OnceValue(func() *core.Shared { return core.NewShared(model, copts) })
	if opts.Modular && len(jobs) > 0 {
		if rep.Modular, err = sweepModular(model, jobs, opts, copts, workers, global); err != nil {
			return nil, nil, err
		}
	}
	// One pool simulates representatives (unless the modular schedule did),
	// member audits and replay audits. Each Result is valid only until the
	// simulator's next run, so capture and audits use it immediately.
	err = runPool(global, len(jobs), workers, func(next func() *core.Simulator, i int) error {
		job := &jobs[i]
		if job.audit != nil || !opts.Modular {
			sum, viols, res, err := sweepOne(next(), model, job.members[0], opts.K)
			if err != nil {
				return err
			}
			if job.audit != nil {
				return auditReplay(job.audit, sum, viols, res, model, job.members[0])
			}
			if plan != nil {
				// A dirty class re-simulated under an incremental plan:
				// stamp the sweep-wide counters so the run's Stats are
				// self-describing (core.Stats.Invalidation).
				res.Stats.Invalidation = plan.stats
			}
			if captured != nil && job.class >= 0 {
				rec := captureRecord(res, model, classes[job.class], sum, viols)
				captured[job.class] = &rec
			}
			job.sum, job.viols = sum, viols
		}
		for _, p := range job.members[1:] {
			if !audit[p] {
				continue
			}
			asum, aviols, _, err := sweepOne(next(), model, p, opts.K)
			if err != nil {
				return err
			}
			if err := diffAudit(job.sum, job.viols, asum, aviols, job.members[0], p); err != nil {
				return err
			}
			job.audited++
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	rep.Duration = time.Since(start)
	rep.Classes = len(classes)
	if opts.NoClasses {
		rep.Classes = len(prefixes)
	}
	for _, job := range jobs {
		if job.audit != nil {
			rep.Invalidation.ReplaysAudited++
			continue
		}
		rep.Prefixes, rep.Violations = replicate(rep.Prefixes, rep.Violations, job.sum, job.viols, job.members)
		rep.Audited += job.audited
	}
	sort.Slice(rep.Prefixes, func(i, j int) bool { return rep.Prefixes[i].Prefix < rep.Prefixes[j].Prefix })
	sort.Slice(rep.Violations, func(i, j int) bool {
		if rep.Violations[i].Prefix != rep.Violations[j].Prefix {
			return rep.Violations[i].Prefix < rep.Violations[j].Prefix
		}
		return rep.Violations[i].Router < rep.Violations[j].Router
	})

	var store *ResultStore
	if capture {
		store = newStoreShell(n, opts)
		for i, cls := range classes {
			rec := captured[i]
			if rec == nil && plan != nil && plan.records[i] != nil && !plan.dirty[i] {
				// Carry the baseline record forward; only the fingerprint
				// string can have shifted under unrelated edits.
				carried := *plan.records[i]
				carried.Fingerprint = cls.Fingerprint
				rec = &carried
			}
			if rec == nil {
				return nil, nil, fmt.Errorf("hoyan: internal: no record captured for class %d (%s)", i, cls.Rep)
			}
			store.Classes = append(store.Classes, *rec)
		}
	}
	return rep, store, nil
}

// replicate appends a representative's report once per class member,
// renamed to the member's prefix.
func replicate(sums []PrefixSummary, viols []Violation, sum PrefixSummary, vs []Violation,
	members []netaddr.Prefix) ([]PrefixSummary, []Violation) {
	for _, p := range members {
		s := sum
		s.Prefix = p.String()
		sums = append(sums, s)
		for _, v := range vs {
			v.Prefix = s.Prefix
			viols = append(viols, v)
		}
	}
	return sums, viols
}

// runPool runs tasks 0..n-1 striped over at most workers goroutines. A
// task gets its goroutine's simulator, built from shared on first use,
// by calling next before each run. Unrelated prefixes share no
// conditions, so next resets the simulator before every run after the
// first: the formula arena and hash-cons lookups stay flat, and
// re-seeding from the shared IGP memo keeps the reset cheap. A task's
// error stops its goroutine; the first error in goroutine order is
// returned once all have finished.
func runPool(shared func() *core.Shared, n, workers int, task func(next func() *core.Simulator, i int) error) error {
	p := min(workers, n)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sim *core.Simulator
			next := func() *core.Simulator {
				if sim == nil {
					sim = shared().NewSimulator()
				} else {
					sim.Reset()
				}
				return sim
			}
			for i := w; i < n; i += p {
				if errs[w] = task(next, i); errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sweepOne simulates one prefix and folds its verdicts into a summary and
// violations — the same code path whether the prefix is a class
// representative, a singleton of an unclassed sweep, or an audit re-check
// of a member. The Result is returned for immediate use (taint capture,
// condition export, replay audits) and becomes invalid at the simulator's
// next run/Reset.
func sweepOne(sim *core.Simulator, m *core.Model, p netaddr.Prefix, k int) (PrefixSummary, []Violation, *core.Result, error) {
	t0 := time.Now()
	res, err := sim.Run(p)
	if err != nil {
		return PrefixSummary{}, nil, nil, err
	}
	simTime := time.Since(t0)
	sum, viols := foldVerdicts(m, p, res.Verdicts(nil, p), k, simTime)
	return sum, viols, res, nil
}

// foldVerdicts folds node-ordered verdicts into a prefix's report: a
// violation per unreachable BGP speaker, and the smallest within-budget
// failure count (first node in ID order wins ties) as the prefix's weak
// point.
func foldVerdicts(m *core.Model, p netaddr.Prefix, vs []core.Verdict, k int, simTime time.Duration) (PrefixSummary, []Violation) {
	sum := PrefixSummary{Prefix: p.String(), MinFailures: -1, SimTime: simTime}
	minIdx, nviol := scanVerdicts(vs, k)
	if minIdx >= 0 {
		sum.MinFailures = vs[minIdx].Min
		sum.WeakestRouter = m.Net.Node(vs[minIdx].Node).Name
	}
	viols := make([]Violation, 0, nviol)
	for _, v := range vs {
		if !v.Reachable {
			viols = append(viols, ReachabilityViolation(sum.Prefix, m.Net.Node(v.Node).Name))
		}
	}
	return sum, viols
}

// ReachabilityViolation is the violation a sweep reports for a router
// with no route to the prefix with all links up, however the verdict
// was computed (in-process or by a remote worker).
func ReachabilityViolation(prefix, router string) Violation {
	return Violation{Kind: "reachability", Prefix: prefix, Router: router, Details: "no route with all links up"}
}

// scanVerdicts selects the weakest in-budget verdict (the index of the
// first minimal Min <= k among reachable nodes) and counts violations. It
// runs once per simulated prefix over every BGP speaker's verdict, on the
// summary evaluation path.
//
//hoyan:hotpath
func scanVerdicts(vs []core.Verdict, k int) (minIdx, nviol int) {
	minIdx = -1
	for i := range vs {
		if !vs[i].Reachable {
			nviol++
			continue
		}
		if vs[i].Min <= k && (minIdx == -1 || vs[i].Min < vs[minIdx].Min) {
			minIdx = i
		}
	}
	return minIdx, nviol
}

// auditReplay checks a freshly simulated class representative against
// the cached record the incremental sweep replayed for its class: the
// report fields must match, and the stored portable condition DAG must
// still be equivalent to the fresh reachability condition at the
// record's anchor router.
func auditReplay(rec *ClassRecord, sum PrefixSummary, viols []Violation,
	res *core.Result, m *core.Model, p netaddr.Prefix) error {
	if err := diffAudit(rec.Summary, rec.Violations, sum, viols, p, p); err != nil {
		return fmt.Errorf("hoyan: incremental replay audit: stale cached report: %w", err)
	}
	if rec.Cond != nil && rec.CondRouter != "" {
		node, ok := m.Net.NodeByName(rec.CondRouter)
		if !ok {
			return fmt.Errorf("hoyan: incremental replay audit for %s: anchor router %q not in model", p, rec.CondRouter)
		}
		fresh := res.ReachCond(node.ID, core.AnyRouteTo(p))
		imported := rec.Cond.Import(res.Sim.F)
		if len(imported) != 1 || !res.Sim.F.Equivalent(imported[0], fresh) {
			return fmt.Errorf("hoyan: incremental replay audit for %s: stored reachability condition at %s no longer equivalent to fresh simulation", p, rec.CondRouter)
		}
	}
	return nil
}

// diffAudit compares an audited member's fully simulated report against
// the one replicated from its class representative. Violations are
// generated in node order by sweepOne on both sides, so positional
// comparison suffices.
func diffAudit(rep PrefixSummary, repV []Violation, got PrefixSummary, gotV []Violation, repP, p netaddr.Prefix) error {
	if got.MinFailures != rep.MinFailures || got.WeakestRouter != rep.WeakestRouter {
		return fmt.Errorf("hoyan: sweep audit divergence for %s (class of %s): got MinFailures=%d WeakestRouter=%q, replicated MinFailures=%d WeakestRouter=%q",
			p, repP, got.MinFailures, got.WeakestRouter, rep.MinFailures, rep.WeakestRouter)
	}
	if len(gotV) != len(repV) {
		return fmt.Errorf("hoyan: sweep audit divergence for %s (class of %s): %d violations, replicated %d",
			p, repP, len(gotV), len(repV))
	}
	for i := range gotV {
		if gotV[i].Kind != repV[i].Kind || gotV[i].Router != repV[i].Router || gotV[i].Details != repV[i].Details {
			return fmt.Errorf("hoyan: sweep audit divergence for %s (class of %s): violation %d is %s@%s, replicated %s@%s",
				p, repP, i, gotV[i].Kind, gotV[i].Router, repV[i].Kind, repV[i].Router)
		}
	}
	return nil
}

// String summarizes the sweep for logs.
func (r *SweepReport) String() string {
	weak := 0
	for _, p := range r.Prefixes {
		if p.MinFailures >= 0 {
			weak++
		}
	}
	s := fmt.Sprintf("sweep: %d prefixes in %d classes on %d workers in %s (%d reachability violations, %d prefixes breakable within budget",
		len(r.Prefixes), r.Classes, r.Workers, r.Duration.Round(time.Millisecond), len(r.Violations), weak)
	if r.Audited > 0 {
		s += fmt.Sprintf(", %d members audited", r.Audited)
	}
	if r.Replayed > 0 {
		s += fmt.Sprintf(", %d classes replayed from baseline", r.Replayed)
	}
	if r.Invalidation != nil && r.Invalidation.ReplaysAudited > 0 {
		s += fmt.Sprintf(", %d replays audited", r.Invalidation.ReplaysAudited)
	}
	if r.Modular != nil {
		switch {
		case r.Modular.Fallback:
			s += ", modular fallback: no usable partition"
		default:
			s += fmt.Sprintf(", modular: %d regions, %d passes, %d refusals (%d predicted)", r.Modular.Regions, r.Modular.Passes, r.Modular.Refused, r.Modular.Predicted)
		}
	}
	return s + ")"
}
