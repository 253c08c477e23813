package hoyan

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/logic"
	"hoyan/internal/topo"
)

// ClassRecord is one behavior class's cached verification outcome plus
// the dependency data an incremental sweep needs to decide whether a
// model delta can change the outcome: the taint set the simulation
// actually consulted (core.Taint) widened with every device the report
// itself names, the prefix universe of the run, and the representative's
// reachability condition as a factory-independent logic.Portable DAG.
type ClassRecord struct {
	// Fingerprint is the class's behavior fingerprint (core.Classes) in
	// the model the record was captured from. Informational: matching
	// against a new model goes by Members, because unrelated config edits
	// can rewrite every fingerprint string while preserving the partition.
	Fingerprint string `json:"fingerprint"`
	// Members are the class's prefixes, sorted — the record's identity.
	Members []string `json:"members"`
	// Summary and Violations are the representative's report (Summary.
	// Prefix names the representative; replay rewrites per member).
	Summary    PrefixSummary `json:"summary"`
	Violations []Violation   `json:"violations,omitempty"`
	// TaintDevices/TaintSessions/TaintLinks/ViaIGP are the captured taint
	// set by name (sessions as [from, to], links as sorted name pairs).
	TaintDevices  []string    `json:"taint_devices"`
	TaintSessions [][2]string `json:"taint_sessions,omitempty"`
	TaintLinks    [][2]string `json:"taint_links,omitempty"`
	ViaIGP        bool        `json:"via_igp,omitempty"`
	// Universe is the run's prefix universe (family members included).
	Universe []string `json:"universe,omitempty"`
	// CondRouter/Cond anchor the replay audit: the representative's
	// reachability condition at CondRouter, portable across factories.
	CondRouter string          `json:"cond_router,omitempty"`
	Cond       *logic.Portable `json:"cond,omitempty"`
	// CondRouters/Conds feed the query plane (internal/qc): the
	// representative's reachability condition at every BGP-speaking
	// router, exported as one multi-root Portable (root i is the
	// condition at CondRouters[i]) so shared sub-DAGs are stored once.
	CondRouters []string        `json:"cond_routers,omitempty"`
	Conds       *logic.Portable `json:"conds,omitempty"`
}

// StoredLink is one baseline topology link by endpoint names.
type StoredLink struct {
	A      string `json:"a"`
	B      string `json:"b"`
	Weight uint32 `json:"weight"`
}

// ResultStore is a persisted baseline: the swept model (topology plus
// canonical config text, enough to rebuild and diff it) and one
// ClassRecord per behavior class, keyed by the sweep's options hash.
// Produced by Network.SweepBaseline, consumed via Options.Baseline.
type ResultStore struct {
	// OptionsHash fingerprints every option that can change reports
	// (K, pruning, simplification, profile registry). A mismatch forces
	// full invalidation.
	OptionsHash string `json:"options_hash"`
	K           int    `json:"k"`
	// Nodes and Links rebuild the baseline topology; Configs holds the
	// canonical serialization (config.Write) of every device.
	Nodes   []topo.Node       `json:"nodes"`
	Links   []StoredLink      `json:"links"`
	Configs map[string]string `json:"configs"`
	Classes []ClassRecord     `json:"classes"`
	// Quarantined holds class records LoadResultStore pulled out of
	// Classes because they failed validation; the rest of the store stays
	// usable (those classes just re-simulate). Never persisted.
	Quarantined []QuarantinedRecord `json:"-"`
}

// QuarantinedRecord is one invalid class record LoadResultStore refused
// to replay, with the reason.
type QuarantinedRecord struct {
	Index  int // position in the stored classes array
	Reason string
	Record ClassRecord
}

// CorruptStoreError reports a result store that failed to load cleanly.
// It always names the file; Usable distinguishes a store that can still
// serve as a (partial) baseline — bad records quarantined, the rest
// intact — from one that cannot be trusted at all (truncated or
// syntactically corrupt JSON).
type CorruptStoreError struct {
	Path string
	// Offset is the byte offset of the JSON syntax error (0 when the
	// damage has no position, e.g. a truncated file).
	Offset int64
	// Usable reports whether the returned store is still safe to use as
	// a partial baseline.
	Usable bool
	// Quarantined counts records pulled out of the store (Usable case).
	Quarantined int
	Err         error
}

func (e *CorruptStoreError) Error() string {
	if e.Usable {
		return fmt.Sprintf("hoyan: result store %s: %d invalid class record(s) quarantined (%v); the rest of the store is usable — quarantined classes re-simulate", e.Path, e.Quarantined, e.Err)
	}
	if e.Offset > 0 {
		return fmt.Sprintf("hoyan: result store %s is corrupt at byte %d (%v); the store is NOT usable — quarantine it (QuarantineResultStore) and sweep cold", e.Path, e.Offset, e.Err)
	}
	return fmt.Sprintf("hoyan: result store %s is corrupt (%v); the store is NOT usable — quarantine it (QuarantineResultStore) and sweep cold", e.Path, e.Err)
}

func (e *CorruptStoreError) Unwrap() error { return e.Err }

// Save writes the store as JSON, atomically: the bytes go to a unique
// temp file in the destination directory, are fsync'd, and only then
// renamed over path. A crash at any point leaves either the previous
// store or the complete new one — never a torn file for LoadResultStore
// or the quarantine machinery to trip over. Stale temp files from an
// earlier crash are inert (the *.tmp-* name never matches path).
func (st *ResultStore) Save(path string) error {
	data, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("hoyan: encoding result store: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("hoyan: saving result store: %w", err)
	}
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("hoyan: saving result store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("hoyan: saving result store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("hoyan: saving result store: %w", err)
	}
	return nil
}

// LoadResultStore reads a store written by Save. Damage is reported
// loudly but gracefully: truncated or syntactically corrupt JSON returns
// a *CorruptStoreError (Usable=false, with the file name and byte
// offset) and no store; a store that decodes but carries invalid class
// records returns the store with those records moved to Quarantined plus
// a *CorruptStoreError (Usable=true) — callers may keep the partial
// baseline (quarantined classes simply re-simulate) or treat it as
// fatal.
func LoadResultStore(path string) (*ResultStore, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st := &ResultStore{}
	if err := json.Unmarshal(data, st); err != nil {
		ce := &CorruptStoreError{Path: path, Err: err}
		var syn *json.SyntaxError
		var typ *json.UnmarshalTypeError
		switch {
		case errors.As(err, &syn):
			ce.Offset = syn.Offset
		case errors.As(err, &typ):
			ce.Offset = typ.Offset
		}
		return nil, ce
	}
	// Validate record by record; a damaged entry is quarantined, not
	// replayed (replaying a half-written record would report stale or
	// nonsensical results as verified).
	kept := st.Classes[:0]
	for i, rec := range st.Classes {
		if why := validateRecord(&rec); why != "" {
			st.Quarantined = append(st.Quarantined, QuarantinedRecord{Index: i, Reason: why, Record: rec})
			continue
		}
		kept = append(kept, rec)
	}
	st.Classes = kept
	if n := len(st.Quarantined); n > 0 {
		return st, &CorruptStoreError{
			Path: path, Usable: true, Quarantined: n,
			Err: fmt.Errorf("first: class %d: %s", st.Quarantined[0].Index, st.Quarantined[0].Reason),
		}
	}
	return st, nil
}

// validateRecord checks the invariants replay depends on; it returns a
// reason string for an unusable record, "" for a good one.
func validateRecord(rec *ClassRecord) string {
	if len(rec.Members) == 0 {
		return "no members"
	}
	for _, m := range rec.Members {
		if m == "" {
			return "empty member prefix"
		}
	}
	if rec.Summary.Prefix == "" {
		return "summary names no representative prefix"
	}
	for _, v := range rec.Violations {
		if v.Router == "" {
			return "violation names no router"
		}
	}
	// The query-plane conditions must stay root-for-router aligned: a
	// record whose router names and condition roots disagree would serve
	// one router's answer under another's name.
	if rec.Conds == nil {
		if len(rec.CondRouters) != 0 {
			return "router condition names without condition roots"
		}
	} else if rec.Conds.NumRoots() != len(rec.CondRouters) {
		return fmt.Sprintf("%d condition roots for %d router names", rec.Conds.NumRoots(), len(rec.CondRouters))
	}
	return ""
}

// QuarantineResultStore moves a corrupt store out of the way (to
// path+".corrupt", or a numbered variant when that exists) so the next
// sweep starts cold instead of tripping over it again. It returns the
// quarantine path.
func QuarantineResultStore(path string) (string, error) {
	dst := path + ".corrupt"
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = fmt.Sprintf("%s.corrupt.%d", path, i)
	}
	if err := os.Rename(path, dst); err != nil {
		return "", fmt.Errorf("hoyan: quarantining result store: %w", err)
	}
	return dst, nil
}

// optionsHash fingerprints the report-affecting options. Custom profile
// registries cannot be fingerprinted, so they get a distinct marker that
// never matches a stored hash (loud full invalidation instead of silent
// replay under different vendor semantics).
func optionsHash(opts Options) string {
	prof := "tuned"
	if opts.Profiles != nil {
		prof = "custom"
	}
	return fmt.Sprintf("k=%d;prune=%v;simplify=%v;profiles=%s",
		opts.K, !opts.DisablePruning, !opts.DisableSimplify, prof)
}

func membersKey(members []string) string { return strings.Join(members, " ") }

// newStoreShell captures the model side of a store (topology + configs);
// class records are appended by the sweep.
func newStoreShell(n *Network, opts Options) *ResultStore {
	st := &ResultStore{
		OptionsHash: optionsHash(opts),
		K:           opts.K,
		Configs:     map[string]string{},
	}
	for _, node := range n.net.Nodes() {
		st.Nodes = append(st.Nodes, *node)
	}
	for _, l := range n.net.Links() {
		st.Links = append(st.Links, StoredLink{
			A: n.net.Node(l.A).Name, B: n.net.Node(l.B).Name, Weight: l.Weight,
		})
	}
	for name, dev := range n.snap {
		st.Configs[name] = config.Write(dev)
	}
	return st
}

// baselineModel rebuilds and assembles the stored baseline. Node IDs are
// re-assigned in stored order; RouterIDs, roles and every other node
// attribute round-trip exactly (topo.AddNode only auto-assigns a zero
// RouterID, and captured nodes always carry the assigned one).
func (st *ResultStore) baselineModel(reg *behavior.Registry) (*core.Model, error) {
	net := topo.NewNetwork()
	for _, node := range st.Nodes {
		node.ID = 0 // reassigned by AddNode
		if _, err := net.AddNode(node); err != nil {
			return nil, fmt.Errorf("hoyan: baseline topology: %w", err)
		}
	}
	for _, l := range st.Links {
		a, ok1 := net.NodeByName(l.A)
		b, ok2 := net.NodeByName(l.B)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("hoyan: baseline link %s~%s references unknown router", l.A, l.B)
		}
		if _, err := net.AddLink(a.ID, b.ID, l.Weight); err != nil {
			return nil, fmt.Errorf("hoyan: baseline topology: %w", err)
		}
	}
	snap := config.Snapshot{}
	for name, text := range st.Configs {
		d, err := config.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("hoyan: baseline config for %s: %w", name, err)
		}
		snap[name] = d
	}
	return core.Assemble(net, snap, reg)
}

// captureRecord builds the ClassRecord for a freshly simulated class
// representative. It must run while res is still valid (before the
// worker's next Simulator.Reset): the taint is copied and the condition
// exported into a factory-independent Portable here.
func captureRecord(res *core.Result, m *core.Model, cls core.PrefixClass,
	sum PrefixSummary, viols []Violation) ClassRecord {
	rec := ClassRecord{
		Fingerprint: cls.Fingerprint,
		Summary:     sum,
		Violations:  append([]Violation(nil), viols...),
	}
	// A record holds no wall-clock time, so equal sweeps save equal bytes
	// and a replayed prefix reports SimTime 0: not simulated this run.
	rec.Summary.SimTime = 0
	for _, p := range cls.Members {
		rec.Members = append(rec.Members, p.String())
	}
	sort.Strings(rec.Members)

	t := res.Taint()
	devs := map[string]bool{}
	for _, id := range t.Nodes {
		devs[m.Net.Node(id).Name] = true
	}
	// Widen with every device the report names: invalidation soundness
	// then holds by construction — a report cannot mention a device
	// outside its own record's taint.
	if sum.WeakestRouter != "" {
		devs[sum.WeakestRouter] = true
	}
	for _, v := range viols {
		devs[v.Router] = true
	}
	for d := range devs {
		rec.TaintDevices = append(rec.TaintDevices, d)
	}
	sort.Strings(rec.TaintDevices)
	for _, s := range t.Sessions {
		rec.TaintSessions = append(rec.TaintSessions,
			[2]string{m.Net.Node(s.From).Name, m.Net.Node(s.To).Name})
	}
	for _, l := range t.Links {
		link := m.Net.Link(l)
		a, b := m.Net.Node(link.A).Name, m.Net.Node(link.B).Name
		if b < a {
			a, b = b, a
		}
		rec.TaintLinks = append(rec.TaintLinks, [2]string{a, b})
	}
	rec.ViaIGP = t.ViaIGP
	for _, p := range t.Universe {
		rec.Universe = append(rec.Universe, p.String())
	}
	sort.Strings(rec.Universe)

	// Export the representative's reachability condition at the weakest
	// router (or the first BGP speaker) as the replay-audit anchor.
	anchor := sum.WeakestRouter
	if anchor == "" {
		for _, node := range m.Net.Nodes() {
			if m.Configs[node.ID].BGP != nil {
				anchor = node.Name
				break
			}
		}
	}
	if node, ok := m.Net.NodeByName(anchor); ok {
		cond := res.ReachCond(node.ID, core.AnyRouteTo(cls.Rep))
		rec.CondRouter = anchor
		rec.Cond = res.Sim.F.ExportCanonical(cond)
	}

	// Export the reachability condition at every BGP speaker (node-ID
	// order, deterministic) as one multi-root Portable: the query plane
	// compiles these into per-router programs, so "reachable from R under
	// F" is answered by evaluation instead of simulation.
	var conds []logic.F
	for _, node := range m.Net.Nodes() {
		if m.Configs[node.ID].BGP == nil {
			continue
		}
		rec.CondRouters = append(rec.CondRouters, node.Name)
		conds = append(conds, res.ReachCond(node.ID, core.AnyRouteTo(cls.Rep)))
	}
	if len(conds) > 0 {
		rec.Conds = res.Sim.F.ExportCanonical(conds...)
	}
	return rec
}

// incrementalPlan is the outcome of diffing the new model against a
// baseline store: which classes replay their cached record and which
// must re-simulate.
type incrementalPlan struct {
	// dirty[i] is true when class i (index into model.Classes()) must be
	// re-simulated.
	dirty []bool
	// records[i] is the baseline record for class i (nil for dirty
	// classes with no baseline match).
	records []*ClassRecord
	delta   *core.ModelDelta
	stats   *core.InvalidationStats
}

// planIncremental decides, class by class, whether the baseline record
// can be replayed. It never fails: anything that prevents a sound replay
// (options mismatch, unparseable baseline, full-invalidation delta kinds)
// degrades to re-simulating everything, with the reason recorded loudly
// in the returned stats.
func planIncremental(model *core.Model, classes []core.PrefixClass,
	store *ResultStore, opts Options) *incrementalPlan {
	plan := &incrementalPlan{
		dirty:   make([]bool, len(classes)),
		records: make([]*ClassRecord, len(classes)),
		stats:   &core.InvalidationStats{DeltaKinds: map[string]int{}},
	}
	allDirty := func(note string) *incrementalPlan {
		for i := range plan.dirty {
			plan.dirty[i] = true
		}
		plan.stats.FullInvalidation = true
		plan.stats.ClassesDirty = len(classes)
		plan.stats.Notes = append(plan.stats.Notes, note)
		return plan
	}

	if h := optionsHash(opts); h != store.OptionsHash {
		return allDirty(fmt.Sprintf("options hash %q does not match baseline %q; full re-sweep", h, store.OptionsHash))
	}
	old, err := store.baselineModel(opts.profiles())
	if err != nil {
		return allDirty(fmt.Sprintf("baseline model unusable (%v); full re-sweep", err))
	}
	plan.delta = core.Diff(old, model)
	plan.stats.DeltaKinds = plan.delta.Kinds()
	if plan.delta.Full() {
		return allDirty("delta contains full-invalidation items (topology/process-level change); full re-sweep")
	}

	byMembers := map[string]*ClassRecord{}
	for i := range store.Classes {
		byMembers[membersKey(store.Classes[i].Members)] = &store.Classes[i]
	}
	for i, cls := range classes {
		members := make([]string, len(cls.Members))
		for j, p := range cls.Members {
			members[j] = p.String()
		}
		sort.Strings(members)
		rec := byMembers[membersKey(members)]
		if rec == nil {
			plan.dirty[i] = true // partition shifted here; no baseline match
			continue
		}
		plan.records[i] = rec
		if recordImpacted(rec, members, plan.delta) {
			plan.dirty[i] = true
		}
	}
	for i := range classes {
		if plan.dirty[i] {
			plan.stats.ClassesDirty++
		} else {
			plan.stats.ClassesReplayed++
		}
	}
	return plan
}

// IncrementalPlan is the exported planning outcome for dispatchers that
// run simulations elsewhere (dist.Coordinator): the classes that must be
// re-simulated, and the cached reports — already rewritten per member —
// for everything the baseline still covers. cmd/hoyan feeds DirtyJobs to
// Coordinator.RunClasses so the cluster only sees invalidated work.
type IncrementalPlan struct {
	// DirtyJobs lists the classes to re-simulate: members, representative
	// first, as prefix strings (the dist job format).
	DirtyJobs [][]string
	// ReplayedSummaries and ReplayedViolations are the cached reports of
	// the clean classes, replicated to every member.
	ReplayedSummaries  []PrefixSummary
	ReplayedViolations []Violation
	// ReplayedClasses counts the clean classes.
	ReplayedClasses int
	Stats           *core.InvalidationStats
	Delta           *core.ModelDelta
}

// PlanIncremental diffs the network against a baseline store and splits
// the behavior classes into dirty jobs and replayable reports without
// running any simulation. Sweep performs the same planning internally;
// this entry point exists for distributed dispatch.
func (n *Network) PlanIncremental(opts Options, store *ResultStore) (*IncrementalPlan, error) {
	model, err := n.model(&opts)
	if err != nil {
		return nil, err
	}
	classes := model.Classes()
	plan := planIncremental(model, classes, store, opts)
	out := &IncrementalPlan{Stats: plan.stats, Delta: plan.delta}
	for i, cls := range classes {
		if plan.dirty[i] {
			job := make([]string, len(cls.Members))
			for j, p := range cls.Members {
				job[j] = p.String()
			}
			out.DirtyJobs = append(out.DirtyJobs, job)
			continue
		}
		rec := plan.records[i]
		out.ReplayedSummaries, out.ReplayedViolations = replicate(out.ReplayedSummaries, out.ReplayedViolations,
			rec.Summary, rec.Violations, cls.Members)
		out.ReplayedClasses++
	}
	return out, nil
}

// recordImpacted applies the invalidation rule: a delta item dirties a
// class when its scope intersects the class's members/universe (prefix
// scope) or its taint devices (device scope). Items with no scope are
// informational (e.g. data-plane ACL edits) and dirty nothing.
func recordImpacted(rec *ClassRecord, members []string, delta *core.ModelDelta) bool {
	inUniverse := map[string]bool{}
	for _, p := range members {
		inUniverse[p] = true
	}
	for _, p := range rec.Universe {
		inUniverse[p] = true
	}
	tainted := map[string]bool{}
	for _, d := range rec.TaintDevices {
		tainted[d] = true
	}
	for _, it := range delta.Items {
		switch {
		case it.Full:
			return true
		case it.AllPrefixes:
			if tainted[it.Device] || (it.Peer != "" && tainted[it.Peer]) {
				return true
			}
		default:
			for _, p := range it.Prefixes {
				if inUniverse[p.String()] {
					return true
				}
			}
		}
	}
	return false
}
