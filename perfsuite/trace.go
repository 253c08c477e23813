package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"hoyan"
	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/httpapi"
	"hoyan/internal/igp"
	"hoyan/internal/netaddr"
	"hoyan/internal/qc"
	"hoyan/internal/topo"
	"hoyan/internal/vet"
)

// span is one timed call: name, start, end, the span that caused it, and
// the operation it belongs to. Times are milliseconds since the traced
// run began. N counts the calls a batch span covers (qc.eval).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	N      int     `json:"n,omitempty"`
}

func (s span) ms() float64 { return s.End - s.Start }

// recorder keeps spans in memory; the run writes them out at the end.
// Calls are driven single-threaded, so a span's time is busy time and
// children never overlap.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indexes
	op    int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() float64 { return ms(time.Since(r.t0)) }

func (r *recorder) begin(name string) int {
	parent := 0
	if len(r.open) > 0 {
		parent = r.spans[r.open[len(r.open)-1]].ID
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: r.op, Name: name, Start: r.now()})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	r.spans[i].End = r.now()
	r.open = r.open[:len(r.open)-1]
}

// do records one call as a span.
func (r *recorder) do(name string, f func() error) error {
	i := r.begin(name)
	err := f()
	r.end(i)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// durations lists the wall times of every span with the name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// selfTimes lists, per span with the name, its duration minus the time
// its direct children cover.
func (r *recorder) selfTimes(name string) []float64 {
	child := map[int]float64{}
	for _, s := range r.spans {
		child[s.Parent] += s.ms()
	}
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.ms()-child[s.ID])
		}
	}
	return out
}

func (r *recorder) median(name string) float64 { return quantile(r.durations(name), 0.5) }

// runStats sums core.Stats and the formula arena size over the
// representative runs of one operation.
type runStats struct {
	st    core.Stats
	nodes int
}

func (a *runStats) add(s core.Stats, nodes int) {
	a.st.Branches += s.Branches
	a.st.DroppedPolicy += s.DroppedPolicy
	a.st.DroppedOverK += s.DroppedOverK
	a.st.DroppedImpossible += s.DroppedImpossible
	a.st.Delivered += s.Delivered
	a.st.Steps += s.Steps
	if s.MaxCondLen > a.st.MaxCondLen {
		a.st.MaxCondLen = s.MaxCondLen
	}
	if nodes > a.nodes {
		a.nodes = nodes
	}
}

// simulate runs each representative on one simulator derived from the
// Shared (reset between runs, as a sweep worker does), then the
// min-failures fold over every BGP speaker.
func simulate(r *recorder, sh *core.Shared, reps []netaddr.Prefix, agg *runStats) error {
	m := sh.M
	sim := sh.NewSimulator()
	for i, rep := range reps {
		if i > 0 {
			sim.Reset()
		}
		var res *core.Result
		if err := r.do("core.run", func() (err error) { res, err = sim.Run(rep); return err }); err != nil {
			return err
		}
		agg.add(res.Stats, sim.F.NumNodes())
		pat := core.AnyRouteTo(rep)
		r.do("logic.minfail", func() error {
			for _, node := range m.Net.Nodes() {
				if m.Configs[node.ID].BGP != nil && res.Reachable(node.ID, pat) {
					res.MinFailuresToLose(node.ID, pat)
				}
			}
			return nil
		})
	}
	return nil
}

// headlineOps maps each workload to the traced operation its end-to-end
// metrics come from; runtime.* and trace.overhead_ms are reported for it.
var headlineOps = map[string]string{
	"audit-cold": "op.audit", "push-query": "op.push", "query-steady": "op.query", "audit-dist": "op.dist",
}

// runTraced is the traced run: one pass over the product's four paths
// (cold audit, one push, the query deck, one modular audit) that drives
// every layer through its public call, single-threaded, with a span per
// call. Work reachable only inside a product call (baseline capture in
// SweepBaseline, the commit in POST /v1/resweep, RunModular's fan-out)
// stays under that call's own span, whose self time is reported under
// its own name.
func runTraced(cfg *runConfig) (*outcome, error) {
	in, err := generate(cfg.params)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.work, "wan")
	if err := in.w.WriteDir(dir); err != nil {
		return nil, err
	}
	s, err := startService(in, cfg.threads)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	deck := buildDeck(in, cfg.seed, deckSize)
	pushes := pushSeries(in.w, cfg.seed, 1)

	o := newOutcome()
	in.describe(o)
	r := newRecorder()
	mem := map[string]memDelta{}
	// op runs one traced operation. Each builds on the state of the ones
	// before it, so a failure ends the run.
	op := func(name string, f func() error) error {
		r.op++
		before := readMem()
		err := r.do(name, f)
		mem[name] = deltaMem(before, readMem())
		o.attempted++
		return err
	}
	var (
		m          *core.Model
		loadedNet  *topo.Network
		loadedSnap config.Snapshot
		store      *hoyan.ResultStore
		audit      runStats
		memo       [2]int64
		snap       *qc.Snapshot
		ol         *openLoop
		plan       *hoyan.IncrementalPlan
		delta      *core.ModelDelta
		refused    int
		distRes    distCounters
	)

	err = op("op.audit", func() error {
		var n *hoyan.Network
		if err := r.do("config.load", func() (err error) { n, err = hoyan.LoadDirectory(dir); return err }); err != nil {
			return err
		}
		// The same parse, for the topology and snapshot the Network keeps
		// to itself. The layers below run on the loaded WAN, not the
		// generated one: gen.WriteDir does not write node roles, so the
		// two differ in every node's attributes.
		var err error
		if loadedNet, loadedSnap, err = gen.LoadDir(dir); err != nil {
			return err
		}
		if err := r.do("core.assemble", func() (err error) {
			m, err = core.Assemble(loadedNet, loadedSnap, behavior.TrueProfiles())
			return err
		}); err != nil {
			return err
		}
		var classes []core.PrefixClass
		r.do("core.classes", func() error { classes = m.Classes(); return nil })
		var sh *core.Shared
		r.do("igp.shared", func() error { sh = core.NewShared(m, coreOptions()); return nil })
		var reps []netaddr.Prefix
		for _, c := range classes {
			reps = append(reps, c.Rep)
		}
		if err := simulate(r, sh, reps, &audit); err != nil {
			return err
		}
		memo[0], memo[1] = sh.MemoHits()
		if err := r.do("hoyan.sweep_baseline", func() (err error) {
			_, store, err = n.SweepBaseline(hoyan.Options{K: k}, 1)
			return err
		}); err != nil {
			return err
		}
		return r.do("store.save", func() error { return store.Save(filepath.Join(cfg.work, "store.json")) })
	})
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(filepath.Join(cfg.work, "store.json"))
	if err != nil {
		return nil, err
	}

	p := pushes[0]
	ups := []config.Update{{Device: p.Device, Lines: p.Lines}}
	err = op("op.push", func() error {
		var pushed config.Snapshot
		if err := r.do("config.apply", func() (err error) { pushed, err = loadedSnap.Apply(ups); return err }); err != nil {
			return err
		}
		var pm *core.Model
		if err := r.do("core.assemble", func() (err error) {
			pm, err = core.Assemble(loadedNet, pushed, behavior.TrueProfiles())
			return err
		}); err != nil {
			return err
		}
		r.do("core.diff", func() error { delta = core.Diff(m, pm); return nil })
		pn := hoyan.NetworkFrom(loadedNet, pushed)
		if err := r.do("core.plan", func() (err error) { plan, err = pn.PlanIncremental(hoyan.Options{K: k}, store); return err }); err != nil {
			return err
		}
		var sh *core.Shared
		r.do("igp.shared", func() error { sh = core.NewShared(pm, coreOptions()); return nil })
		var dirty []netaddr.Prefix
		for _, job := range plan.DirtyJobs {
			rep, err := netaddr.Parse(job[0])
			if err != nil {
				return err
			}
			dirty = append(dirty, rep)
		}
		if err := simulate(r, sh, dirty, &runStats{}); err != nil {
			return err
		}
		var pstore *hoyan.ResultStore
		if err := r.do("hoyan.sweep_incremental", func() (err error) {
			_, pstore, err = pn.SweepBaseline(hoyan.Options{K: k, Baseline: store}, 1)
			return err
		}); err != nil {
			return err
		}
		if err := r.do("qc.compile", func() (err error) { snap, err = qc.CompileStore(pstore); return err }); err != nil {
			return err
		}
		if err := r.do("httpapi.publish", func() error { _, err := s.svc.PublishStore(pstore); return err }); err != nil {
			return err
		}
		// The product path itself, with the open-loop readers running.
		stop := make(chan struct{})
		readers := make(chan *openLoop, 1)
		go func() { readers <- runOpenLoop(s, deck, queryRate, stop) }()
		c := newClient(1)
		defer c.CloseIdleConnections()
		err := r.do("httpapi.resweep", func() error {
			rep, err := s.resweep(c, httpapi.ResweepRequest{Workers: 1, Updates: []httpapi.ResweepUpdate{{Device: p.Device, Lines: p.Lines}}})
			if err == nil {
				err = checkPush(rep, s.active)
				s.active = rep.body.Snapshot
			}
			return err
		})
		close(stop)
		ol = <-readers
		return err
	})
	if err != nil {
		return nil, err
	}

	var handler, socket []float64
	var evalNS []float64
	err = op("op.query", func() error {
		c := newClient(1)
		defer c.CloseIdleConnections()
		for pass := 0; pass < 3; pass++ {
			for i := range deck {
				q := &deck[i]
				var code int
				r.do("httpapi.handler", func() error { code = s.serveLocal(q.path).Code; return nil })
				handler = append(handler, r.spans[len(r.spans)-1].ms()*1000)
				if code != http.StatusOK {
					return fmt.Errorf("handler %s: status %d", q.path, code)
				}
				var resp httpapi.QueryResponse
				t0 := time.Now()
				code, err := s.get(c, q.path, &resp)
				socket = append(socket, ms(time.Since(t0))*1000)
				if err != nil || code != http.StatusOK {
					return fmt.Errorf("query %s: status %d, %v", q.path, code, err)
				}
			}
		}
		var err error
		evalNS, err = timeEval(r, snap, deck)
		return err
	})
	if err != nil {
		return nil, err
	}

	err = op("op.dist", func() error {
		var err error
		refused, err = tracedRegionPasses(r, m)
		if err != nil {
			return err
		}
		classes, err := modularClasses(in)
		if err != nil {
			return err
		}
		return r.do("dist.run_modular", func() error {
			res, _, err := runModular(in, classes, cfg.threads)
			if err == nil {
				distRes = distCounters{res.ModularPasses, res.ModularRefused, res.Requeued, res.Retried, res.Hedged}
			}
			return err
		})
	})
	if err != nil {
		return nil, err
	}

	overhead, err := traceOverhead(cfg, in, s, dir, deck)
	if err != nil {
		return nil, err
	}

	// Per-layer metrics.
	met := o.metrics
	put := func(name, unit string, v float64) { met[name] = value{v, unit} }
	put("config.load_ms", "ms", r.median("config.load"))
	put("config.apply_ms", "ms", r.median("config.apply"))
	put("core.assemble_ms", "ms", r.median("core.assemble"))
	put("core.classes_ms", "ms", r.median("core.classes"))
	put("core.classes", "count", float64(len(in.classes)))
	put("core.diff_ms", "ms", r.median("core.diff"))
	put("core.delta_items", "count", float64(len(delta.Items)))
	put("core.plan_ms", "ms", r.median("core.plan"))
	total := len(plan.DirtyJobs) + plan.ReplayedClasses
	put("core.dirty_classes", "count", float64(len(plan.DirtyJobs)))
	put("core.dirty_ratio", "ratio", float64(len(plan.DirtyJobs))/float64(total))
	runs := r.durations("core.run")
	put("core.run_p50_ms", "ms", quantile(runs, 0.5))
	put("core.run_p99_ms", "ms", quantile(runs, 0.99))
	put("core.run_count", "count", float64(len(runs)))
	st := audit.st
	put("core.branches", "count", float64(st.Branches))
	put("core.dropped_policy", "count", float64(st.DroppedPolicy))
	put("core.dropped_overk", "count", float64(st.DroppedOverK))
	put("core.dropped_impossible", "count", float64(st.DroppedImpossible))
	put("core.delivered", "count", float64(st.Delivered))
	put("core.delivered_ratio", "ratio", float64(st.Delivered)/float64(st.Branches))
	put("core.steps", "count", float64(st.Steps))
	put("core.max_cond_len", "count", float64(st.MaxCondLen))
	put("core.memo_hits", "count", float64(memo[0]))
	put("core.memo_hit_ratio", "ratio", float64(memo[0])/float64(memo[0]+memo[1]))
	put("core.partition_ms", "ms", r.median("core.partition"))
	passes := r.durations("core.region_pass")
	put("core.region_pass_p50_ms", "ms", quantile(passes, 0.5))
	put("core.region_pass_p99_ms", "ms", quantile(passes, 0.99))
	put("core.region_pass_count", "count", float64(len(passes)))
	put("core.region_refused", "count", float64(refused))
	put("igp.shared_ms", "ms", r.median("igp.shared"))
	put("igp.cut_memo_ms", "ms", r.median("igp.cut_memo"))
	put("igp.region_shared_ms", "ms", r.median("igp.region_shared"))
	put("logic.minfail_ms", "ms", r.median("logic.minfail"))
	put("logic.nodes", "count", float64(audit.nodes))
	put("store.save_ms", "ms", r.median("store.save"))
	put("store.bytes", "bytes", float64(fi.Size()))
	put("qc.compile_ms", "ms", r.median("qc.compile"))
	put("qc.programs", "count", float64(snap.Stats.Programs))
	put("qc.decisions", "count", float64(snap.Stats.Decisions))
	put("qc.eval_ns", "ns", quantile(evalNS, 0.5))
	put("httpapi.publish_ms", "ms", r.median("httpapi.publish"))
	hp50 := quantile(handler, 0.5)
	put("httpapi.handler_p50_us", "us", hp50)
	put("httpapi.handler_p99_us", "us", quantile(handler, 0.99))
	put("httpapi.transport_us", "us", quantile(socket, 0.5)-hp50)
	put("dist.passes", "count", float64(distRes.passes))
	put("dist.refused", "count", float64(distRes.refused))
	put("dist.requeued", "count", float64(distRes.requeued))
	put("dist.retried", "count", float64(distRes.retried))
	put("dist.hedged", "count", float64(distRes.hedged))
	put("vet.predict_ms", "ms", r.median("vet.predict"))
	md := mem[headlineOps[cfg.workload]]
	put("runtime.alloc_mb_per_op", "MB", md.allocMB)
	put("runtime.gc_cycles_per_op", "count", md.gcCycles)
	put("runtime.gc_pause_ms_per_op", "ms", md.pauseMS)
	put("loadgen.late_ms", "ms", maxOf(ol.late))
	put("hoyan.sweep_baseline_self_ms", "ms", quantile(r.selfTimes("hoyan.sweep_baseline"), 0.5))
	put("hoyan.sweep_incremental_self_ms", "ms", quantile(r.selfTimes("hoyan.sweep_incremental"), 0.5))
	put("httpapi.resweep_self_ms", "ms", quantile(r.selfTimes("httpapi.resweep"), 0.5))
	put("dist.run_modular_self_ms", "ms", quantile(r.selfTimes("dist.run_modular"), 0.5))
	put("trace.spans", "count", float64(len(r.spans)))
	put("trace.overhead_ms", "ms", overhead)

	o.inputs["traced_push"] = pushRecord{push: p, Dirty: len(plan.DirtyJobs), Classes: total,
		DirtyShare: float64(len(plan.DirtyJobs)) / float64(total), DeltaKinds: delta.Kinds(),
		DeviceTaint: hasDeviceTaint(delta)}
	o.inputs["store_bytes"] = fi.Size()
	o.inputs["programs"] = snap.Stats.Programs
	o.inputs["decisions"] = snap.Stats.Decisions
	o.inputs["refused_classes"] = distRes.refused
	o.inputs["reader_queries"] = ol.attempted
	if ol.failed > 0 {
		o.fail("reader: %s", ol.firstErr)
	}
	o.spans = r.spans
	return o, nil
}

func hasDeviceTaint(d *core.ModelDelta) bool {
	for _, it := range d.Items {
		if it.AllPrefixes {
			return true
		}
	}
	return false
}

type distCounters struct{ passes, refused, requeued, retried, hedged int }

// tracedRegionPasses drives the modular layers the way one modular audit
// does, single-threaded: partition, refusal pre-flight, cut memo, one
// region Shared per region, then each representative's home pass and
// its import passes. A refusal (core.UnsoundCut) ends that
// representative's passes.
func tracedRegionPasses(r *recorder, m *core.Model) (refusedReps int, err error) {
	var pt *core.Partition
	if err := r.do("core.partition", func() (err error) { pt, err = core.NewPartition(m); return err }); err != nil {
		return 0, err
	}
	r.do("vet.predict", func() error { vet.PredictRefusals(m, k); return nil })
	opts := coreOptions()
	var cut *igp.Memo
	r.do("igp.cut_memo", func() error { cut = core.CutMemo(m, opts, pt); return nil })
	sims := make([]*core.Simulator, pt.NumRegions())
	for reg := range sims {
		r.do("igp.region_shared", func() error {
			sims[reg] = core.NewRegionShared(m, opts, pt, reg, cut).NewSimulator()
			return nil
		})
	}
	used := make([]bool, len(sims))
	// pass runs one region pass; refused reports a core.UnsoundCut.
	pass := func(rep netaddr.Prefix, reg int, in *core.CutSummary) (sum *core.CutSummary, refused bool, err error) {
		if used[reg] {
			sims[reg].Reset()
		}
		used[reg] = true
		err = r.do("core.region_pass", func() (err error) { _, sum, err = sims[reg].RunRegion(rep, pt, reg, in); return err })
		var uc *core.UnsoundCut
		if errors.As(err, &uc) {
			return nil, true, nil
		}
		return sum, false, err
	}
	for _, cl := range m.Classes() {
		home, err := pt.FamilyHome(m, cl.Rep)
		if err != nil {
			refusedReps++ // no home region: a caller-side refusal
			continue
		}
		sum, refused, err := pass(cl.Rep, home, nil)
		if err != nil {
			return 0, err
		}
		for reg := 0; reg < len(sims) && !refused; reg++ {
			if reg != home {
				if _, refused, err = pass(cl.Rep, reg, sum); err != nil {
					return 0, err
				}
			}
		}
		if refused {
			refusedReps++
		}
	}
	return refusedReps, nil
}

// timeEval measures Program.Eval in process on the deck's reach
// queries: each condition is evaluated in a batch long enough for the
// clock, and the per-call time is the batch time over its size.
func timeEval(r *recorder, snap *qc.Snapshot, deck []query) ([]float64, error) {
	const batch = 2000
	fs, sc := snap.NewFailureSet(), snap.NewScratch()
	var out []float64
	for i := range deck {
		q := &deck[i]
		if q.Kind != "reach" {
			continue
		}
		cls, ok := snap.ClassOf(q.Prefix)
		if !ok {
			return nil, fmt.Errorf("eval: %s not in the compiled snapshot", q.Prefix)
		}
		root, ok := cls.Router(q.Router)
		if !ok {
			return nil, fmt.Errorf("eval: %s not a speaker", q.Router)
		}
		fs.Reset()
		for _, l := range q.Failed {
			v, ok := snap.ResolveLink(l)
			if !ok {
				return nil, fmt.Errorf("eval: unknown link %s", l)
			}
			fs.Add(v)
		}
		prog := cls.Progs[root]
		i := r.begin("qc.eval")
		for j := 0; j < batch; j++ {
			prog.Eval(fs, sc)
		}
		r.end(i)
		r.spans[i].N = batch
		out = append(out, r.spans[i].ms()*1e6/batch)
	}
	return out, nil
}

// traceOverhead runs the workload's headline operation once untraced
// and once under the recorder (spans around its calls, ReadMemStats
// around the operation) and returns traced minus untraced, in ms.
func traceOverhead(cfg *runConfig, in *wanInputs, s *service, dir string, deck []query) (float64, error) {
	r := newRecorder()
	var plain, traced time.Duration
	switch cfg.workload {
	case "audit-cold":
		path := filepath.Join(cfg.work, "overhead-store.json")
		t0 := time.Now()
		if _, err := coldAudit(dir, path, cfg.threads); err != nil {
			return 0, err
		}
		plain = time.Since(t0)
		t0 = time.Now()
		before := readMem()
		var n *hoyan.Network
		var st *hoyan.ResultStore
		err := r.do("config.load", func() (err error) { n, err = hoyan.LoadDirectory(dir); return err })
		if err == nil {
			err = r.do("hoyan.sweep_baseline", func() (err error) { _, st, err = n.SweepBaseline(hoyan.Options{K: k}, cfg.threads); return err })
		}
		if err == nil {
			err = r.do("store.save", func() error { return st.Save(path) })
		}
		deltaMem(before, readMem())
		traced = time.Since(t0)
		if err != nil {
			return 0, err
		}
	case "audit-dist":
		classes, err := modularClasses(in)
		if err != nil {
			return 0, err
		}
		if _, plain, err = runModular(in, classes, cfg.threads); err != nil {
			return 0, err
		}
		t0 := time.Now()
		before := readMem()
		err = r.do("dist.run_modular", func() error { _, _, err := runModular(in, classes, cfg.threads); return err })
		deltaMem(before, readMem())
		traced = time.Since(t0)
		if err != nil {
			return 0, err
		}
	case "push-query":
		// An empty resweep replays every class and republishes: the
		// push path's fixed cost, identical on both sides of the pair.
		c := newClient(1)
		defer c.CloseIdleConnections()
		t0 := time.Now()
		if _, err := s.resweep(c, httpapi.ResweepRequest{Workers: 1}); err != nil {
			return 0, err
		}
		plain = time.Since(t0)
		t0 = time.Now()
		before := readMem()
		err := r.do("httpapi.resweep", func() error { _, err := s.resweep(c, httpapi.ResweepRequest{Workers: 1}); return err })
		deltaMem(before, readMem())
		traced = time.Since(t0)
		if err != nil {
			return 0, err
		}
	case "query-steady":
		// One pass over the deck per side; the traced side records a span
		// per query.
		c := newClient(1)
		defer c.CloseIdleConnections()
		pass := func(trace bool) (time.Duration, error) {
			t0 := time.Now()
			for i := range deck {
				var resp httpapi.QueryResponse
				get := func() error { _, err := s.get(c, deck[i].path, &resp); return err }
				var err error
				if trace {
					err = r.do("httpapi.query", get)
				} else {
					err = get()
				}
				if err != nil {
					return 0, err
				}
			}
			return time.Since(t0) / time.Duration(len(deck)), nil
		}
		var err error
		if plain, err = pass(false); err != nil {
			return 0, err
		}
		if traced, err = pass(true); err != nil {
			return 0, err
		}
	default:
		return 0, errors.New("no headline operation for " + cfg.workload)
	}
	return ms(traced - plain), nil
}
