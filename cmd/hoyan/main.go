// Command hoyan is the CLI front end of the verifier: it loads a network
// directory (topology.txt + per-router .cfg files, as written by
// hoyangen) and answers the verification questions of §5 — route and
// packet reachability under failures, role equivalence, racing — plus the
// full daily audit of Figure 2.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"

	"hoyan"
	"hoyan/internal/core"
	"hoyan/internal/dist"
	"hoyan/internal/gen"
	"hoyan/internal/netaddr"
	"hoyan/internal/vet"
)

// vetReport is the envelope of `hoyan vet -json` — the same schema
// family hoyand's GET /v1/vet serves.
type vetReport struct {
	Findings    int              `json:"findings"`
	Advisories  int              `json:"advisories"`
	Diagnostics []vet.Diagnostic `json:"diagnostics"`
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: hoyan <command> [flags]

commands:
  route   -dir DIR -prefix P -router R [-k N]   route reachability under failures
  packet  -dir DIR -prefix P -src R [-k N]      packet reachability to any announcer
                                                of the prefix
  equiv   -dir DIR -a R1 -b R2                  role equivalence of two routers
  racing  -dir DIR -prefix P                    update-racing ambiguity
  audit   -dir DIR [-k N]                       full audit: origin conflicts,
                                                redundancy-group equivalence, and
                                                racing of multi-origin prefixes
  update  -dir DIR -device R -lines "l1;l2"     what-if check of an incremental update:
                                                every best-route change it causes
  check   -dir DIR -intents FILE [-k N]         verify an operator intent file
  vet     -dir DIR [-json] [-only a,b] [-k N]   static configuration analysis: find
                                                config defects and predict modular
                                                refusals without simulating; exit 1
                                                on findings (info advisories never
                                                fail a run), 2 on usage errors
  sweep   -dir DIR [-k N]                       whole-network sweep, in-process by
                                                default
          [-workers a:p,b:p]                    dispatch to hoyanworker processes
          [-retries N] [-req-timeout D] [-dial-timeout D]
          [-hedge-after D] [-partial]           fault-tolerance knobs (-workers)
          [-no-classes]                         one simulation per prefix instead
                                                of per behavior class
          [-baseline FILE]                      incremental re-verification: diff
                                                against a saved baseline, simulate
                                                only invalidated classes, replay
                                                the rest (with -workers, only the
                                                dirty classes are dispatched);
                                                omit it to sweep cold
          [-save-baseline FILE]                 also capture a baseline store
                                                (reports, taints, portable
                                                conditions); in-process only
          [-modular]                            per-region passes stitched through
                                                interface summaries
          [-audit-sample F] [-threads N]        in-process knobs: re-simulate a
                                                fraction of replicas/replays;
                                                goroutines (0 = GOMAXPROCS)
          [-journal FILE]                       crash-safe session (-workers): journal
                                                class completions to FILE so a
                                                killed coordinator can resume
          [-resume]                             resume the -journal session:
                                                replay journaled classes, dispatch
                                                only the remainder
          [-session ID]                         session id recorded in the journal

        -no-classes, -baseline, -modular and -journal compose with each other
        and with -workers. Refused: -save-baseline with -workers or -modular,
        -journal without -workers or with -modular, -resume without -journal.

exit codes:
  0  verified clean
  1  violations found, or the run errored
  2  usage error
  3  partial result: -partial was set and some prefixes never completed
     (the sweep is incomplete, whatever it did complete is reported)

every command also accepts -cpuprofile FILE and -memprofile FILE to
write pprof profiles of the run.
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	dir := fs.String("dir", "", "network directory (topology.txt + *.cfg)")
	prefix := fs.String("prefix", "", "prefix in CIDR form")
	router := fs.String("router", "", "target router")
	src := fs.String("src", "", "source router")
	a := fs.String("a", "", "first router")
	b := fs.String("b", "", "second router")
	k := fs.Int("k", 3, "failure budget")
	device := fs.String("device", "", "device to update")
	lines := fs.String("lines", "", "update command lines, ';'-separated")
	workers := fs.String("workers", "", "comma-separated worker addresses")
	intents := fs.String("intents", "", "intent file path")
	dopts := dist.DefaultOptions()
	retries := fs.Int("retries", dopts.MaxAttempts, "sweep: per-prefix attempts before giving up")
	reqTimeout := fs.Duration("req-timeout", dopts.RequestTimeout, "sweep: per-request deadline")
	dialTimeout := fs.Duration("dial-timeout", dopts.DialTimeout, "sweep: per-dial deadline")
	hedgeAfter := fs.Duration("hedge-after", 0, "sweep: re-dispatch stragglers to idle workers after this long (0 = off)")
	partial := fs.Bool("partial", false, "sweep: report failed prefixes instead of aborting the run")
	noClasses := fs.Bool("no-classes", false, "sweep: simulate every prefix instead of one representative per behavior class")
	modular := fs.Bool("modular", false, "sweep: per-region passes stitched through interface summaries, O(WAN/regions) working set (falls back to monolithic, loudly, when no usable cut exists)")
	baseline := fs.String("baseline", "", "sweep: baseline result store for incremental re-verification")
	saveBaseline := fs.String("save-baseline", "", "sweep: write a baseline result store after an in-process sweep")
	auditSample := fs.Float64("audit-sample", 0, "sweep: fraction of replicated members and cached replays to re-simulate and check")
	threads := fs.Int("threads", 0, "sweep: local goroutines when no -workers given (0 = GOMAXPROCS)")
	jsonOut := fs.Bool("json", false, "vet: emit machine-readable diagnostics instead of text")
	only := fs.String("only", "", "vet: comma-separated analyzer names to run (default: all)")
	journal := fs.String("journal", "", "sweep: journal class completions to this file (crash-safe session)")
	resume := fs.Bool("resume", false, "sweep: resume the -journal session instead of starting fresh")
	sessionID := fs.String("session", "", "sweep: session id recorded in the journal (default derived from pid)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	fs.Parse(os.Args[2:])

	startProfiles(*cpuprofile, *memprofile)
	if *dir == "" {
		fail("missing -dir")
	}
	net, snap, err := gen.LoadDir(*dir)
	if err != nil {
		fail(err.Error())
	}
	hn := hoyan.NetworkFrom(net, snap)
	opts := hoyan.Options{K: *k}
	verifier := func(n *hoyan.Network) *hoyan.Verifier {
		v, err := n.Verifier(opts)
		check(err)
		return v
	}

	switch cmd {
	case "route":
		need(*prefix, "-prefix")
		need(*router, "-router")
		rep, err := verifier(hn).RouteReach(*prefix, *router)
		check(err)
		fmt.Printf("route %s @ %s: reachable=%v\n", *prefix, *router, rep.Reachable)
		switch {
		case rep.Tolerant:
			fmt.Printf("  survives any %d link failures (formula len %d)\n", *k, rep.FormulaLen)
		case rep.Reachable:
			fmt.Printf("  breaks with %d failures: %v\n", rep.MinFailures, rep.Witness)
		}
	case "packet":
		need(*prefix, "-prefix")
		need(*src, "-src")
		rep, err := verifier(hn).PacketReach(*prefix, *src)
		check(err)
		fmt.Printf("packet %s -> %s (any announcer): reachable=%v min-failures=%s\n",
			*src, *prefix, rep.Reachable, minStr(rep.MinFailures, *k))
	case "equiv":
		need(*a, "-a")
		need(*b, "-b")
		rep, err := verifier(hn).RoleEquivalence(*a, *b)
		check(err)
		for _, d := range rep.Differences {
			fmt.Printf("  %s\n", d)
		}
		if rep.Equivalent {
			fmt.Printf("%s and %s are equivalent roles\n", *a, *b)
		} else {
			fmt.Printf("%d divergences\n", len(rep.Differences))
			exit(1)
		}
	case "racing":
		need(*prefix, "-prefix")
		rep, err := verifier(hn).CheckRacing(*prefix)
		check(err)
		if rep.Ambiguous {
			fmt.Printf("AMBIGUOUS: %d convergences; order-dependent at %d routers %v\n",
				rep.Convergences, len(rep.AmbiguousRouters), rep.AmbiguousRouters)
			exit(1)
		}
		fmt.Println("convergence is deterministic")
	case "audit":
		viols, err := verifier(hn).AuditAll(nil)
		check(err)
		for _, v := range viols {
			fmt.Println(v)
		}
		fmt.Printf("audit complete: %d violations\n", len(viols))
		if len(viols) > 0 {
			exit(1)
		}
	case "update":
		need(*device, "-device")
		need(*lines, "-lines")
		target := hn.Clone()
		check(target.ApplyUpdate(*device, strings.Split(*lines, ";")...))
		before, after := verifier(hn), verifier(target)
		// A prefix the update adds or withdraws is diffed too.
		prefixes := append(before.Prefixes(), after.Prefixes()...)
		sort.Strings(prefixes)
		changed := 0
		for _, p := range slices.Compact(prefixes) {
			for _, r := range before.Routers() {
				was, err := before.BestRoute(p, r)
				check(err)
				now, err := after.BestRoute(p, r)
				check(err)
				if was != now {
					fmt.Printf("[change] %s @ %s: %s -> %s\n", p, r, routeStr(was), routeStr(now))
					changed++
				}
			}
		}
		fmt.Printf("update would change %d (prefix, router) selections\n", changed)
	case "check":
		need(*intents, "-intents")
		raw, err := os.ReadFile(*intents)
		check(err)
		set, err := hoyan.ParseIntents(string(raw))
		check(err)
		viols, err := verifier(hn).CheckIntentSet(set)
		check(err)
		for _, vi := range viols {
			fmt.Println(vi)
		}
		fmt.Printf("%d intent violations\n", len(viols))
		if len(viols) > 0 {
			exit(1)
		}
	case "vet":
		analyzers := vet.Analyzers()
		if *only != "" {
			analyzers = analyzers[:0]
			for _, name := range strings.Split(*only, ",") {
				a := vet.ByName(strings.TrimSpace(name))
				if a == nil {
					fmt.Fprintf(os.Stderr, "hoyan: unknown analyzer %q\n", strings.TrimSpace(name))
					exit(2)
				}
				analyzers = append(analyzers, a)
			}
		}
		// -k mirrors the sweep the vet run front-runs: cutsound keys its
		// refusal predictions on the failure budget.
		diags, err := vet.RunBudget(verifier(hn).Model(), analyzers, *k)
		check(err)
		findings := vet.Findings(diags)
		if *jsonOut {
			if diags == nil {
				diags = []vet.Diagnostic{}
			}
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			check(enc.Encode(vetReport{
				Findings: findings, Advisories: len(diags) - findings, Diagnostics: diags,
			}))
		} else {
			for _, d := range diags {
				fmt.Println(d)
			}
			fmt.Printf("vet: %d findings, %d advisories\n", findings, len(diags)-findings)
		}
		if findings > 0 {
			exit(1)
		}
	case "sweep":
		// Each refusal names a capability that does not exist; every other
		// combination composes.
		switch {
		case *saveBaseline != "" && *workers != "":
			fail("-save-baseline captures taints and conditions locally; drop -workers")
		case *saveBaseline != "" && *modular:
			fail("-modular cannot capture a baseline (portable conditions require monolithic simulation)")
		case *journal != "" && *workers == "":
			fail("-journal needs a distributed sweep (-workers)")
		case *journal != "" && *modular:
			fail("-journal records monolithic class completions; drop -modular")
		case *resume && *journal == "":
			fail("-resume needs -journal")
		}
		sopts := hoyan.Options{K: *k, NoClasses: *noClasses, Modular: *modular, AuditSample: *auditSample}
		if *baseline != "" {
			if sopts.Baseline = loadBaseline(*baseline); sopts.Baseline == nil {
				fmt.Println("no usable baseline; sweeping cold")
			}
		}
		if *workers == "" {
			localSweep(hn, sopts, *threads, *saveBaseline)
			break
		}
		dopts.MaxAttempts = *retries
		dopts.RequestTimeout = *reqTimeout
		dopts.DialTimeout = *dialTimeout
		dopts.HedgeAfter = *hedgeAfter
		dopts.AllowPartial = *partial
		// Always pin the model: multi-session workers (-extra-dirs) hold
		// several networks, and an unhashed request would silently run
		// against whichever one is their default.
		dopts.ModelHash = dist.ModelHash(net, snap)
		coord := &dist.Coordinator{Addrs: strings.Split(*workers, ","), Opts: dopts}
		distSweep(coord, hn, verifier(hn).Model(), sopts, *journal, *sessionID, *resume)
	default:
		usage()
	}
	exit(0)
}

// finishProfiles flushes any profiles requested with -cpuprofile /
// -memprofile; every exit path must run it, hence exit() below.
var finishProfiles = func() {}

func startProfiles(cpu, mem string) {
	stopCPU := func() {}
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fail(err.Error())
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err.Error())
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	finishProfiles = func() {
		stopCPU()
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hoyan:", err)
				return
			}
			runtime.GC() // up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hoyan:", err)
			}
			f.Close()
		}
	}
}

func exit(code int) {
	finishProfiles()
	os.Exit(code)
}

func need(v, name string) {
	if v == "" {
		fail("missing " + name)
	}
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "hoyan:", msg)
	exit(1)
}

func check(err error) {
	if err != nil {
		fail(err.Error())
	}
}

func minStr(min, k int) string {
	if min < 0 {
		return fmt.Sprintf(">%d", k)
	}
	return fmt.Sprint(min)
}

// routeStr renders a best route for `hoyan update`.
func routeStr(r hoyan.RouteInfo) string {
	if !r.Present {
		return "no route"
	}
	return fmt.Sprintf("%s via %q as-path %q pref %d local-pref %d", r.Protocol, r.NextHop, r.ASPath, r.Pref, r.LocalPref)
}

// printViolations prints a sweep's reachability violations, one line
// each, in the same form for in-process and distributed sweeps.
func printViolations(viols []hoyan.Violation) {
	for _, v := range viols {
		fmt.Printf("[violation] %s %s @ %s: %s\n", v.Kind, v.Prefix, v.Router, v.Details)
	}
}

// loadBaseline loads a result store, degrading the way the operator
// wants: a partially usable store (bad records quarantined in memory) is
// kept with a warning, an unusable one is quarantined on disk and nil is
// returned so the caller sweeps cold.
func loadBaseline(path string) *hoyan.ResultStore {
	store, err := hoyan.LoadResultStore(path)
	var ce *hoyan.CorruptStoreError
	if errors.As(err, &ce) {
		fmt.Fprintln(os.Stderr, "hoyan: warning:", ce.Error())
		if ce.Usable {
			return store
		}
		qp, qerr := hoyan.QuarantineResultStore(path)
		if qerr != nil {
			fail(qerr.Error())
		}
		fmt.Fprintf(os.Stderr, "hoyan: corrupt store moved to %s\n", qp)
		return nil
	}
	if err != nil {
		fail(err.Error())
	}
	return store
}

// localSweep runs Sweep/SweepBaseline in-process — the only mode that can
// capture a baseline store (taint sets and portable conditions come from
// live simulator state, which remote workers do not ship back).
func localSweep(hn *hoyan.Network, opts hoyan.Options, threads int, savePath string) {
	var (
		rep   *hoyan.SweepReport
		store *hoyan.ResultStore
		err   error
	)
	if savePath != "" {
		rep, store, err = hn.SweepBaseline(opts, threads)
	} else {
		rep, err = hn.Sweep(opts, threads)
	}
	check(err)
	printViolations(rep.Violations)
	printInvalidation(rep.Delta, rep.Invalidation)
	fmt.Println(rep)
	if savePath != "" {
		check(store.Save(savePath))
		fmt.Printf("baseline written to %s (%d classes)\n", savePath, len(store.Classes))
	}
	if len(rep.Violations) > 0 {
		exit(1)
	}
}

// distSweep is the one distributed sweep: build the class list (every
// class, the dirty classes of a -baseline plan, or one singleton per
// prefix under -no-classes), dispatch it once (region passes, a
// journaled session, or plain classes), and print one report.
func distSweep(coord *dist.Coordinator, hn *hoyan.Network, m *core.Model, opts hoyan.Options,
	journal, sessionID string, resume bool) {
	var jobs [][]string
	var plan *hoyan.IncrementalPlan
	switch {
	case opts.NoClasses:
		if opts.Baseline != nil {
			fmt.Println("note: -no-classes disables incremental replay; sweeping cold")
		}
		for _, p := range m.AnnouncedPrefixes() {
			jobs = append(jobs, []string{p.String()})
		}
	case opts.Baseline != nil:
		var err error
		plan, err = hn.PlanIncremental(opts, opts.Baseline)
		check(err)
		printInvalidation(plan.Delta, plan.Stats)
		jobs = plan.DirtyJobs
	default:
		for _, c := range m.Classes() {
			job := make([]string, len(c.Members))
			for i, p := range c.Members {
				job[i] = p.String()
			}
			jobs = append(jobs, job)
		}
	}
	total := 0
	for _, job := range jobs {
		total += len(job)
	}

	res := &dist.Result{}
	if len(jobs) > 0 {
		var err error
		switch {
		case opts.Modular:
			res, err = modularSweep(coord, m, jobs, total, opts.K)
		case journal != "":
			res, err = sessionSweep(coord, jobs, total, opts.K, journal, sessionID, resume)
		default:
			fmt.Printf("dispatching %d behavior classes for %d prefixes\n", len(jobs), total)
			res, err = coord.RunClasses(jobs, opts.K)
		}
		check(err)
	}

	var viols []hoyan.Violation
	replayed := 0
	if plan != nil {
		viols = append(viols, plan.ReplayedViolations...)
		replayed = len(plan.ReplayedSummaries)
	}
	for p, sums := range res.ByPrefix {
		for _, s := range sums {
			if !s.Reachable {
				viols = append(viols, hoyan.ReachabilityViolation(p, s.Router))
			}
		}
	}
	sort.Slice(viols, func(i, j int) bool {
		if viols[i].Prefix != viols[j].Prefix {
			return viols[i].Prefix < viols[j].Prefix
		}
		return viols[i].Router < viols[j].Router
	})
	printViolations(viols)
	for _, f := range res.Failed {
		fmt.Printf("[failed] %s after %d dispatches: %s\n", f.Prefix, f.Dispatches, f.LastError)
	}
	if res.Requeued+res.Retried+res.Hedged > 0 {
		fmt.Printf("resilience: %d jobs re-queued, %d retried, %d hedged\n",
			res.Requeued, res.Retried, res.Hedged)
	}
	if res.Resumed+res.Redispatched > 0 {
		fmt.Printf("session: %d classes replayed from the journal, %d re-dispatched after the crash\n",
			res.Resumed, res.Redispatched)
	}
	done := len(res.ByPrefix) + replayed
	fmt.Printf("distributed sweep: %d/%d prefixes (%d classes, %d replicated, %d replayed from the baseline) over %d workers, %d violations\n",
		done, done+len(res.Failed), res.Classes+res.Resumed, res.Replicated, replayed, len(res.Assigned), len(viols))
	// Exit codes (documented in usage): incompleteness dominates, so a
	// -partial run with failed prefixes is 3 even when the completed
	// subset is clean — CI must not mistake a partial sweep for a
	// verified network.
	switch {
	case len(res.Failed) > 0:
		exit(3)
	case len(viols) > 0:
		exit(1)
	}
}

// modularSweep dispatches each class representative as one home pass
// plus per-region import passes (dist.RunModular), so every worker holds
// one region's working set instead of the whole WAN. When the model has
// no usable cut every class gets an empty Home, so RunModular runs each
// as one monolithic pass, counted as refused — the in-process sweep's
// refusal contract.
func modularSweep(coord *dist.Coordinator, m *core.Model, jobs [][]string, total, k int) (*dist.Result, error) {
	mcs := make([]dist.ModularClass, len(jobs))
	for i := range mcs {
		mcs[i].Members = jobs[i]
	}
	var regions []string
	if pt, err := core.NewPartition(m); err != nil {
		fmt.Printf("note: modular fallback to monolithic: %v\n", err)
	} else {
		for i := 0; i < pt.NumRegions(); i++ {
			regions = append(regions, pt.RegionName(i))
		}
		for i, job := range jobs {
			rep, err := netaddr.Parse(job[0])
			if err != nil {
				return nil, err
			}
			if hi, herr := pt.FamilyHome(m, rep); herr == nil {
				mcs[i].Home = pt.RegionName(hi)
			} else {
				fmt.Printf("note: %s falls back to monolithic: %v\n", rep, herr)
			}
		}
	}
	// Advisory pre-flight: predict the cut's refusals statically so the
	// fallback load is visible before a single worker is dispatched.
	pred := vet.PredictRefusals(m, k)
	refuses := map[string]bool{}
	for i, cl := range pred.Classes {
		for _, p := range cl.Members {
			refuses[p.String()] = len(pred.ByClass[i]) > 0
		}
	}
	predicted := 0
	for _, job := range jobs {
		if refuses[job[0]] {
			predicted++
		}
	}
	if predicted > 0 {
		fmt.Printf("vet pre-flight: %d of %d classes predicted to refuse the cut and fall back to monolithic\n",
			predicted, len(jobs))
	}
	fmt.Printf("dispatching %d behavior classes for %d prefixes across %d regions\n", len(jobs), total, len(regions))
	res, err := coord.RunModular(mcs, regions, k)
	if res != nil {
		fmt.Printf("modular: %d region passes, %d representatives fell back to monolithic\n",
			res.ModularPasses, res.ModularRefused)
	}
	return res, err
}

// sessionSweep runs (or resumes) a journaled distributed sweep: every
// class completion is fsync'd to the journal before it is counted, so a
// killed coordinator resumes with -resume and re-simulates only the
// classes the journal does not cover. The journal is removed after a
// fully successful run and kept (with a hint) otherwise.
func sessionSweep(coord *dist.Coordinator, jobs [][]string, total, k int,
	path, id string, resume bool) (*dist.Result, error) {
	var s *dist.Session
	var err error
	if resume {
		s, err = dist.Resume(path)
		if err != nil {
			return nil, err
		}
		if err := s.MatchesClasses(jobs); err != nil {
			s.Close()
			return nil, err
		}
		fmt.Printf("resuming session %s: %d/%d classes journaled done, %d were in flight at the crash\n",
			s.ID(), s.Completed(), len(jobs), s.Redispatched())
	} else {
		if id == "" {
			id = fmt.Sprintf("sweep-%d", os.Getpid())
		}
		s, err = dist.NewSession(path, id, k, "", coord.Opts.ModelHash, jobs)
		if err != nil {
			return nil, err
		}
		fmt.Printf("session %s: dispatching %d behavior classes for %d prefixes (journal %s)\n",
			id, len(jobs), total, path)
	}
	defer s.Close()
	coord.Opts.Session = s.ID()
	res, err := coord.RunSession(s, k)
	if err == nil && res != nil && len(res.Failed) == 0 {
		if rmErr := s.Remove(); rmErr != nil {
			fmt.Fprintln(os.Stderr, "hoyan: removing completed journal:", rmErr)
		}
	} else {
		fmt.Printf("journal kept at %s; resume with: hoyan sweep ... -journal %s -resume\n", path, path)
	}
	return res, err
}

// printInvalidation reports what an incremental sweep decided and why.
func printInvalidation(delta *core.ModelDelta, st *core.InvalidationStats) {
	if st == nil {
		return
	}
	if delta != nil && !delta.Empty() {
		fmt.Println("model delta vs baseline:")
		for _, it := range delta.Items {
			fmt.Printf("  %s\n", it)
		}
	}
	for _, note := range st.Notes {
		fmt.Printf("note: %s\n", note)
	}
	mode := "selective"
	if st.FullInvalidation {
		mode = "full"
	}
	fmt.Printf("invalidation (%s): %d classes dirty, %d replayed, %d replays audited\n",
		mode, st.ClassesDirty, st.ClassesReplayed, st.ReplaysAudited)
}
