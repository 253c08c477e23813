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
	"sort"
	"strings"

	"hoyan"
	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/dataplane"
	"hoyan/internal/dist"
	"hoyan/internal/gen"
	"hoyan/internal/netaddr"
	"hoyan/internal/racing"
	"hoyan/internal/topo"
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
  packet  -dir DIR -prefix P -src R [-k N]      packet reachability to the gateway
  equiv   -dir DIR -a R1 -b R2                  role equivalence of two routers
  racing  -dir DIR -prefix P                    update-racing ambiguity
  audit   -dir DIR [-k N]                       full audit (conflicts, groups, racing)
  update  -dir DIR -device R -lines "l1;l2"     what-if check of an incremental update
  check   -dir DIR -intents FILE [-k N]         verify an operator intent file
  vet     -dir DIR [-json] [-only a,b] [-k N]   static configuration analysis: find
                                                config defects and predict modular
                                                refusals without simulating; exit 1
                                                on findings (info advisories never
                                                fail a run), 2 on usage errors
  sweep   -dir DIR -workers a:p,b:p [-k N]      distributed whole-network sweep
          [-retries N] [-req-timeout D] [-dial-timeout D]
          [-hedge-after D] [-partial]           fault-tolerance knobs
          [-no-classes]                         one simulation per prefix instead
                                                of per behavior class
          [-baseline FILE]                      incremental re-verification: diff
                                                against a saved baseline, simulate
                                                only invalidated classes, replay
                                                the rest (with -workers, only the
                                                dirty classes are dispatched)
          [-save-baseline FILE]                 local sweep that also captures a
                                                baseline store (reports, taints,
                                                portable conditions)
          [-no-incremental]                     ignore -baseline, sweep cold
          [-audit-sample F] [-threads N]        local sweep knobs: re-simulate a
                                                fraction of replicas/replays;
                                                goroutines (0 = GOMAXPROCS)
          [-journal FILE]                       crash-safe sweep session: journal
                                                class completions to FILE so a
                                                killed coordinator can resume
          [-resume]                             resume the -journal session:
                                                replay journaled classes, dispatch
                                                only the remainder
          [-session ID]                         session id recorded in the journal

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
	saveBaseline := fs.String("save-baseline", "", "sweep: write a baseline result store after a local sweep")
	noIncr := fs.Bool("no-incremental", false, "sweep: ignore -baseline and sweep cold")
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
	build := func(snap config.Snapshot) (*core.Model, *core.Simulator) {
		m, err := core.Assemble(net, snap, behavior.TrueProfiles())
		if err != nil {
			fail(err.Error())
		}
		opts := core.DefaultOptions()
		opts.K = *k
		return m, core.NewSimulator(m, opts)
	}

	switch cmd {
	case "route":
		need(*prefix, "-prefix")
		need(*router, "-router")
		m, sim := build(snap)
		p := mustPrefix(*prefix)
		res, err := sim.Run(p)
		if err != nil {
			fail(err.Error())
		}
		id, ok := m.Resolve(*router)
		if !ok {
			fail("unknown router " + *router)
		}
		min, flen := res.MinFailuresToLose(id, core.AnyRouteTo(p))
		fmt.Printf("route %s @ %s: reachable=%v\n", p, *router, res.Reachable(id, core.AnyRouteTo(p)))
		if min > *k {
			fmt.Printf("  survives any %d link failures (formula len %d)\n", *k, flen)
		} else {
			fs, _ := res.WitnessFailure(id, core.AnyRouteTo(p))
			var names []string
			for _, l := range fs {
				names = append(names, m.Net.Link(l).Name)
			}
			fmt.Printf("  breaks with %d failures: %v\n", min, names)
		}
	case "packet":
		need(*prefix, "-prefix")
		need(*src, "-src")
		m, sim := build(snap)
		p := mustPrefix(*prefix)
		res, err := sim.Run(p)
		if err != nil {
			fail(err.Error())
		}
		id, ok := m.Resolve(*src)
		if !ok {
			fail("unknown router " + *src)
		}
		anns := m.AnnouncersOf(p)
		if len(anns) == 0 {
			fail("nobody announces " + p.String())
		}
		fib := dataplane.Build(res)
		pr := fib.PacketReach(id, 0, p.Addr+1, anns[0])
		min := sim.F.MinFailuresToViolate(pr.Cond)
		fmt.Printf("packet %s -> %s (gw %s): reachable=%v min-failures=%s\n",
			*src, p, m.Net.Node(anns[0]).Name, sim.F.Eval(pr.Cond, nil), minStr(min, *k))
	case "equiv":
		need(*a, "-a")
		need(*b, "-b")
		m, sim := build(snap)
		na, ok1 := m.Resolve(*a)
		nb, ok2 := m.Resolve(*b)
		if !ok1 || !ok2 {
			fail("unknown router")
		}
		diffs := 0
		for _, p := range m.AnnouncedPrefixes() {
			res, err := sim.Run(p)
			if err != nil {
				fail(err.Error())
			}
			for _, d := range res.EquivalentRoles(na, nb) {
				diffs++
				fmt.Printf("  %s: %s (%s=%s, %s=%s)\n", d.Prefix, d.Field, *a, d.A, *b, d.B)
			}
		}
		if diffs == 0 {
			fmt.Printf("%s and %s are equivalent roles\n", *a, *b)
		} else {
			fmt.Printf("%d divergences\n", diffs)
			exit(1)
		}
	case "racing":
		need(*prefix, "-prefix")
		_, sim := build(snap)
		rep, err := racing.Detect(sim, mustPrefix(*prefix), racing.DefaultOptions())
		if err != nil {
			fail(err.Error())
		}
		if rep.Ambiguous {
			fmt.Printf("AMBIGUOUS: %d convergences; order-dependent at %d routers\n",
				len(rep.Solutions), len(rep.AmbiguousNodes))
			exit(1)
		}
		fmt.Println("convergence is deterministic")
	case "audit":
		m, sim := build(snap)
		violations := 0
		for _, p := range m.AnnouncedPrefixes() {
			if anns := m.AnnouncersOf(p); len(anns) > 1 {
				var names []string
				for _, x := range anns {
					names = append(names, m.Net.Node(x).Name)
				}
				fmt.Printf("[conflict] %s announced by %v\n", p, names)
				violations++
			}
		}
		groups := m.Net.NodeGroups()
		groupNames := make([]string, 0, len(groups))
		for g := range groups {
			groupNames = append(groupNames, g)
		}
		sort.Strings(groupNames)
		for _, g := range groupNames {
			members := groups[g]
			for _, p := range m.AnnouncedPrefixes() {
				res, err := sim.Run(p)
				if err != nil {
					fail(err.Error())
				}
				for i := 1; i < len(members); i++ {
					for _, d := range res.EquivalentRoles(members[0], members[i]) {
						fmt.Printf("[equivalence] group %s prefix %s: %s\n", g, d.Prefix, d.Field)
						violations++
					}
				}
			}
		}
		fmt.Printf("audit complete: %d violations\n", violations)
		if violations > 0 {
			exit(1)
		}
	case "update":
		need(*device, "-device")
		need(*lines, "-lines")
		up := config.Update{Device: *device, Lines: strings.Split(*lines, ";")}
		target, err := snap.Apply([]config.Update{up})
		if err != nil {
			fail(err.Error())
		}
		mBefore, simBefore := build(snap)
		_, simAfter := build(target)
		changed := 0
		for _, p := range mBefore.AnnouncedPrefixes() {
			resB, err := simBefore.Run(p)
			if err != nil {
				fail(err.Error())
			}
			resA, err := simAfter.Run(p)
			if err != nil {
				fail(err.Error())
			}
			for _, node := range mBefore.Net.Nodes() {
				b, okB := resB.BestUnder(node.ID, p, nil)
				a2, okA := resA.BestUnder(node.ID, p, nil)
				switch {
				case okB != okA:
					fmt.Printf("[change] %s @ %s: present %v -> %v\n", p, node.Name, okB, okA)
					changed++
				case okB && (b.Protocol != a2.Protocol || b.NextHop != a2.NextHop):
					fmt.Printf("[change] %s @ %s: %v -> %v\n", p, node.Name, b, a2)
					changed++
				}
			}
		}
		fmt.Printf("update would change %d (prefix, router) selections\n", changed)
	case "check":
		need(*intents, "-intents")
		raw, err := os.ReadFile(*intents)
		if err != nil {
			fail(err.Error())
		}
		set, err := hoyan.ParseIntents(string(raw))
		if err != nil {
			fail(err.Error())
		}
		hn, err := hoyan.LoadDirectory(*dir)
		if err != nil {
			fail(err.Error())
		}
		v, err := hn.Verifier(hoyan.Options{K: *k})
		if err != nil {
			fail(err.Error())
		}
		viols, err := v.CheckIntentSet(set)
		if err != nil {
			fail(err.Error())
		}
		for _, vi := range viols {
			fmt.Println(vi)
		}
		fmt.Printf("%d intent violations\n", len(viols))
		if len(viols) > 0 {
			exit(1)
		}
	case "vet":
		m, err := core.Assemble(net, snap, behavior.TrueProfiles())
		if err != nil {
			fail(err.Error())
		}
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
		diags, err := vet.RunBudget(m, analyzers, *k)
		if err != nil {
			fail(err.Error())
		}
		findings := vet.Findings(diags)
		if *jsonOut {
			if diags == nil {
				diags = []vet.Diagnostic{}
			}
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(vetReport{
				Findings: findings, Advisories: len(diags) - findings, Diagnostics: diags,
			}); err != nil {
				fail(err.Error())
			}
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
		if *saveBaseline != "" && *workers != "" {
			fail("-save-baseline captures taints and conditions locally; drop -workers")
		}
		if *journal != "" && (*workers == "" || *noClasses || *baseline != "") {
			fail("-journal needs a distributed classed sweep (-workers, no -no-classes/-baseline)")
		}
		if *resume && *journal == "" {
			fail("-resume needs -journal")
		}
		if *modular && *saveBaseline != "" {
			fail("-modular cannot capture a baseline (portable conditions require monolithic simulation)")
		}
		if *workers == "" {
			if *baseline == "" && *saveBaseline == "" && !*modular {
				fail("missing -workers (local sweeps need -baseline, -save-baseline, or -modular)")
			}
			localSweep(net, snap, *k, *noClasses, *noIncr, *modular, *auditSample, *threads, *baseline, *saveBaseline)
			exit(0)
		}
		if *baseline != "" && *noClasses {
			fmt.Println("note: -no-classes disables incremental replay; sweeping cold")
		}
		opts := dist.DefaultOptions()
		opts.MaxAttempts = *retries
		opts.RequestTimeout = *reqTimeout
		opts.DialTimeout = *dialTimeout
		opts.HedgeAfter = *hedgeAfter
		opts.AllowPartial = *partial
		// Always pin the model: multi-session workers (-extra-dirs) hold
		// several networks, and an unhashed request would silently run
		// against whichever one is their default.
		opts.ModelHash = dist.ModelHash(net, snap)
		coord := &dist.Coordinator{Addrs: strings.Split(*workers, ","), Opts: opts}
		if *baseline != "" && !*noIncr && !*noClasses {
			if store := loadBaseline(*baseline); store != nil {
				distIncrementalSweep(coord, net, snap, *k, store)
				exit(0)
			}
			fmt.Println("no usable baseline; sweeping cold")
		}
		if *modular && (*noClasses || *journal != "") {
			fail("-modular needs a classed sweep without -journal (sessions journal monolithic class completions)")
		}
		m, _ := build(snap)
		var res *dist.Result
		var err error
		if *noClasses {
			var prefixes []string
			for _, p := range m.AnnouncedPrefixes() {
				prefixes = append(prefixes, p.String())
			}
			res, err = coord.Run(prefixes, *k)
		} else {
			classes := m.Classes()
			jobs := make([][]string, 0, len(classes))
			total := 0
			for _, c := range classes {
				var cl []string
				for _, p := range c.Members {
					cl = append(cl, p.String())
				}
				total += len(cl)
				jobs = append(jobs, cl)
			}
			switch {
			case *journal != "":
				res, err = sessionSweep(coord, jobs, total, *k, *journal, *sessionID, *resume, net, snap)
			case *modular:
				res, err = modularSweep(coord, m, classes, jobs, total, *k)
			default:
				fmt.Printf("dispatching %d behavior classes for %d prefixes\n", len(jobs), total)
				res, err = coord.RunClasses(jobs, *k)
			}
		}
		if err != nil {
			fail(err.Error())
		}
		bad := 0
		for _, p := range sortedPrefixes(res.ByPrefix) {
			for _, s := range res.ByPrefix[p] {
				if !s.Reachable {
					fmt.Printf("[violation] %s unreachable at %s\n", p, s.Router)
					bad++
				}
			}
		}
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
		if res.Classes+res.Resumed > 0 {
			fmt.Printf("distributed sweep: %d/%d prefixes (%d classes, %d replicated) over %d workers, %d violations\n",
				len(res.ByPrefix), len(res.ByPrefix)+len(res.Failed), res.Classes+res.Resumed, res.Replicated, len(res.Assigned), bad)
		} else {
			fmt.Printf("distributed sweep: %d/%d prefixes over %d workers, %d violations\n",
				len(res.ByPrefix), len(res.ByPrefix)+len(res.Failed), len(res.Assigned), bad)
		}
		// Exit codes (documented in usage): incompleteness dominates, so a
		// -partial run with failed prefixes is 3 even when the completed
		// subset is clean — CI must not mistake a partial sweep for a
		// verified network.
		code := 0
		if bad > 0 {
			code = 1
		}
		if len(res.Failed) > 0 {
			code = 3
		}
		if code != 0 {
			exit(code)
		}
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

// sortedPrefixes returns the result's prefix keys in sorted order so
// violation reports print deterministically run to run.
func sortedPrefixes(byPrefix map[string][]dist.RouterSummary) []string {
	keys := make([]string, 0, len(byPrefix))
	for p := range byPrefix {
		keys = append(keys, p)
	}
	sort.Strings(keys)
	return keys
}

func mustPrefix(s string) netaddr.Prefix {
	p, err := netaddr.Parse(s)
	if err != nil {
		fail(err.Error())
	}
	return p
}

func minStr(min, k int) string {
	if min > k {
		return fmt.Sprintf(">%d", k)
	}
	return fmt.Sprint(min)
}

// sessionSweep runs (or resumes) a journaled distributed sweep: every
// class completion is fsync'd to the journal before it is counted, so a
// killed coordinator resumes with -resume and re-simulates only the
// classes the journal does not cover. The journal is removed after a
// fully successful run and kept (with a hint) otherwise.
func sessionSweep(coord *dist.Coordinator, jobs [][]string, total, k int,
	path, id string, resume bool, net *topo.Network, snap config.Snapshot) (*dist.Result, error) {
	modelHash := dist.ModelHash(net, snap)
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
		s, err = dist.NewSession(path, id, k, "", modelHash, jobs)
		if err != nil {
			return nil, err
		}
		fmt.Printf("session %s: dispatching %d behavior classes for %d prefixes (journal %s)\n",
			id, len(jobs), total, path)
	}
	defer s.Close()
	coord.Opts.Session = s.ID()
	coord.Opts.ModelHash = modelHash
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
func localSweep(net *topo.Network, snap config.Snapshot, k int, noClasses, noIncr, modular bool,
	auditSample float64, threads int, baselinePath, savePath string) {
	hn := hoyan.NetworkFrom(net, snap)
	opts := hoyan.Options{K: k, NoClasses: noClasses, NoIncremental: noIncr, Modular: modular, AuditSample: auditSample}
	if baselinePath != "" {
		opts.Baseline = loadBaseline(baselinePath)
		if opts.Baseline == nil {
			fmt.Println("no usable baseline; sweeping cold")
		}
	}
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
	if err != nil {
		fail(err.Error())
	}
	for _, v := range rep.Violations {
		fmt.Printf("[violation] %s %s @ %s: %s\n", v.Kind, v.Prefix, v.Router, v.Details)
	}
	printInvalidation(rep.Delta, rep.Invalidation)
	fmt.Println(rep)
	if savePath != "" {
		if err := store.Save(savePath); err != nil {
			fail(err.Error())
		}
		fmt.Printf("baseline written to %s (%d classes)\n", savePath, len(store.Classes))
	}
	if len(rep.Violations) > 0 {
		exit(1)
	}
}

// modularSweep dispatches each class representative as one home pass
// plus per-region import passes (dist.RunModular), so every worker holds
// one region's working set instead of the whole WAN. When the model has
// no usable cut every class gets an empty Home, so RunModular runs each
// as one monolithic pass, counted as refused — the in-process sweep's
// refusal contract.
func modularSweep(coord *dist.Coordinator, m *core.Model, classes []core.PrefixClass,
	jobs [][]string, total, k int) (*dist.Result, error) {
	mcs := make([]dist.ModularClass, len(classes))
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
		for i, cl := range classes {
			if hi, herr := pt.FamilyHome(m, cl.Rep); herr == nil {
				mcs[i].Home = pt.RegionName(hi)
			} else {
				fmt.Printf("note: %s falls back to monolithic: %v\n", cl.Rep, herr)
			}
		}
	}
	// Advisory pre-flight: predict the cut's refusals statically so the
	// fallback load is visible before a single worker is dispatched.
	if pred := vet.PredictRefusals(m, k); pred.RefusedClasses() > 0 {
		fmt.Printf("vet pre-flight: %d of %d classes predicted to refuse the cut and fall back to monolithic\n",
			pred.RefusedClasses(), len(pred.Classes))
	}
	fmt.Printf("dispatching %d behavior classes for %d prefixes across %d regions\n", len(jobs), total, len(regions))
	res, err := coord.RunModular(mcs, regions, k)
	if res != nil {
		fmt.Printf("modular: %d region passes, %d representatives fell back to monolithic\n",
			res.ModularPasses, res.ModularRefused)
	}
	return res, err
}

// distIncrementalSweep plans invalidation locally against a saved
// baseline and dispatches only the dirty classes to the workers; clean
// classes' reports are replayed from the baseline client-side.
func distIncrementalSweep(coord *dist.Coordinator, net *topo.Network, snap config.Snapshot, k int, store *hoyan.ResultStore) {
	plan, err := hoyan.NetworkFrom(net, snap).PlanIncremental(hoyan.Options{K: k}, store)
	if err != nil {
		fail(err.Error())
	}
	printInvalidation(plan.Delta, plan.Stats)
	dirtyPrefixes := 0
	for _, job := range plan.DirtyJobs {
		dirtyPrefixes += len(job)
	}
	res := &dist.Result{}
	if len(plan.DirtyJobs) > 0 {
		fmt.Printf("dispatching %d invalidated classes for %d prefixes\n", len(plan.DirtyJobs), dirtyPrefixes)
		if res, err = coord.RunClasses(plan.DirtyJobs, k); err != nil {
			fail(err.Error())
		}
	}
	bad := 0
	for _, p := range sortedPrefixes(res.ByPrefix) {
		for _, s := range res.ByPrefix[p] {
			if !s.Reachable {
				fmt.Printf("[violation] %s unreachable at %s\n", p, s.Router)
				bad++
			}
		}
	}
	for _, v := range plan.ReplayedViolations {
		fmt.Printf("[violation] %s unreachable at %s (replayed from baseline)\n", v.Prefix, v.Router)
		bad++
	}
	for _, f := range res.Failed {
		fmt.Printf("[failed] %s after %d dispatches: %s\n", f.Prefix, f.Dispatches, f.LastError)
	}
	if res.Requeued+res.Retried+res.Hedged > 0 {
		fmt.Printf("resilience: %d jobs re-queued, %d retried, %d hedged\n",
			res.Requeued, res.Retried, res.Hedged)
	}
	fmt.Printf("incremental distributed sweep: %d prefixes simulated in %d classes over %d workers, %d prefixes replayed from %d cached classes, %d violations\n",
		len(res.ByPrefix), len(plan.DirtyJobs), len(res.Assigned), len(plan.ReplayedSummaries), plan.ReplayedClasses, bad)
	code := 0
	if bad > 0 {
		code = 1
	}
	if len(res.Failed) > 0 {
		code = 3 // partial result: see the exit-code table in usage
	}
	if code != 0 {
		exit(code)
	}
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
