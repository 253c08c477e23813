package qc

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"hoyan"
	"hoyan/internal/logic"
)

// Class is one behavior class compiled for serving: a program per
// BGP-speaking router plus the precomputed answers to the fixed
// questions (all-links-up reachability, min failures to violate), and
// the membership the per-class answers fan out to.
type Class struct {
	// Members are the class's prefixes (sorted, from the record).
	Members []string
	// Routers are the BGP speakers, aligned with Progs/MinFail/ReachUp.
	Routers []string
	// Progs[i] evaluates the reachability condition at Routers[i].
	Progs []*Program
	// MinFail[i] is MinFailuresToViolate of the condition at Routers[i]
	// (logic.Unfailable when nothing within the modeled conditions breaks
	// it), computed once at compile time via a BDD import.
	MinFail []int
	// ReachUp[i] is the all-links-up answer at Routers[i].
	ReachUp []bool
	// ClassMinFail aggregates the per-router answers the way a sweep
	// summary does: the smallest MinFail over routers reachable with all
	// links up; logic.Unfailable when every such router tolerates
	// everything. Routers unreachable even with all links up are sweep
	// violations, not failure-tolerance data points.
	ClassMinFail int

	routerIdx map[string]int
	// conds is the condition DAG the class was compiled from: with
	// Members, Routers and the link universe, the key CompileStoreFrom
	// reuses the class under.
	conds *logic.Portable
}

// Router resolves a router name to its root index.
func (c *Class) Router(name string) (int, bool) {
	i, ok := c.routerIdx[name]
	return i, ok
}

// CompileStats summarizes one store compilation for logs and the
// snapshot-registry listing.
type CompileStats struct {
	Classes  int
	Prefixes int
	Programs int
	// Instrs is the total instruction count across programs; Decisions is
	// the total attached decision-diagram node count.
	Instrs    int
	Decisions int
	// Links is the baseline topology's link count (the variable universe).
	Links int
	// Reused counts the classes carried from the previous snapshot
	// (CompileStoreFrom) instead of compiled.
	Reused int
	// CompileTime is the wall-clock cost of the compilation, including
	// the one-time BDD precomputation of the fixed answers.
	CompileTime time.Duration
}

// Snapshot is a fully compiled ResultStore: every class's conditions as
// flat programs, the prefix→class and link→classes indexes, and the
// precomputed fixed answers. Immutable after compilation; safe for
// concurrent queries with per-caller Scratch/FailureSet.
type Snapshot struct {
	// K is the failure budget the store was swept under; evaluation is
	// exact only for failure sets of at most K links (conditions beyond
	// the budget were pruned at simulation time).
	K int
	// OptionsHash is carried from the store for drift diagnostics.
	OptionsHash string
	Classes     []*Class
	Stats       CompileStats

	prefixClass map[string]int
	// linkVar maps the canonical "a~b" (endpoint-sorted) link name to its
	// variable; linkNames is the inverse, indexed by variable.
	linkVar   map[string]logic.Var
	linkNames []string
	// impact[v] lists, sorted, the classes whose conditions mention link
	// variable v — the "which prefixes does this link's death affect"
	// reverse index, built once at compile time.
	impact    [][]int
	maxInstrs int
}

// canonicalLink renders an endpoint pair in sorted order.
func canonicalLink(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "~" + b
}

// CompileStore compiles a loaded result store for serving, from
// scratch: CompileStoreFrom with no previous snapshot.
func CompileStore(st *hoyan.ResultStore) (*Snapshot, error) {
	return CompileStoreFrom(nil, st)
}

// CompileStoreFrom compiles a loaded result store for serving. Every
// class record must carry the per-router conditions (CondRouters/Conds)
// a baseline captured by this version writes; a store predating the
// query plane compiles to an error and must be re-captured by one sweep.
//
// A class of prev (nil: none) is reused instead of compiled when the
// store's link universe is prev's (same canonical names in the same
// order, so the same variable numbering) and the record's Members,
// CondRouters and Conds equal the ones the class was compiled from. A
// compiled class is a pure function of those four inputs and immutable,
// so both snapshots share it. The indexes and stats are rebuilt from
// the programs either way, so a config push compiles only the classes
// its sweep re-simulated.
func CompileStoreFrom(prev *Snapshot, st *hoyan.ResultStore) (*Snapshot, error) {
	start := time.Now()
	snap := &Snapshot{
		K:           st.K,
		OptionsHash: st.OptionsHash,
		prefixClass: make(map[string]int, 4*len(st.Classes)),
		linkVar:     make(map[string]logic.Var, len(st.Links)),
		linkNames:   make([]string, len(st.Links)),
		impact:      make([][]int, len(st.Links)),
	}
	// Stored links are in LinkID order (newStoreShell appends
	// Network.Links() in ID order) and link variables are LinkIDs, so
	// index i in the stored array is variable i.
	for i, l := range st.Links {
		name := canonicalLink(l.A, l.B)
		snap.linkNames[i] = name
		if _, dup := snap.linkVar[name]; !dup {
			snap.linkVar[name] = logic.Var(i)
		}
	}
	if prev != nil && !slices.Equal(prev.linkNames, snap.linkNames) {
		prev = nil // another variable numbering: nothing carries over
	}

	// One compile-time factory answers the fixed questions exactly (BDD
	// min-cost walk); it is discarded when compilation finishes, so its
	// cost — unlike a simulator's — is paid once per published snapshot,
	// never per query. A store whose every class is reused never needs
	// one.
	var fac *logic.Factory
	for ci := range st.Classes {
		rec := &st.Classes[ci]
		if rec.Conds == nil || len(rec.CondRouters) == 0 {
			return nil, fmt.Errorf("qc: class %d (%s) carries no per-router conditions; the store predates the query plane — re-capture the baseline with a fresh sweep", ci, strings.Join(rec.Members, " "))
		}
		if rec.Conds.NumRoots() != len(rec.CondRouters) {
			return nil, fmt.Errorf("qc: class %d: %d condition roots for %d routers", ci, rec.Conds.NumRoots(), len(rec.CondRouters))
		}
		cls := prev.compiledFrom(rec)
		if cls != nil {
			snap.Stats.Reused++
		} else {
			if fac == nil {
				fac = logic.NewFactory()
			}
			var err error
			if cls, err = compileClass(fac, rec, len(st.Links)); err != nil {
				return nil, fmt.Errorf("qc: class %d %w", ci, err)
			}
		}
		classVars := map[logic.Var]bool{}
		for _, prog := range cls.Progs {
			for _, v := range prog.Vars() {
				classVars[v] = true
			}
			snap.Stats.Instrs += prog.NumInstrs()
			snap.Stats.Decisions += prog.NumDecisions()
			if prog.NumInstrs() > snap.maxInstrs {
				snap.maxInstrs = prog.NumInstrs()
			}
		}
		snap.Stats.Programs += len(cls.Progs)
		for v := range classVars {
			snap.impact[v] = append(snap.impact[v], ci)
		}
		for _, m := range cls.Members {
			if other, dup := snap.prefixClass[m]; dup {
				return nil, fmt.Errorf("qc: prefix %s belongs to classes %d and %d", m, other, ci)
			}
			snap.prefixClass[m] = ci
		}
		snap.Classes = append(snap.Classes, cls)
	}
	// Class indices were appended in class order per variable, so each
	// impact list is already sorted; pin it anyway against future
	// reorderings — the list feeds user-visible output.
	for _, l := range snap.impact {
		sort.Ints(l)
	}
	snap.Stats.Classes = len(snap.Classes)
	snap.Stats.Prefixes = len(snap.prefixClass)
	snap.Stats.Links = len(st.Links)
	snap.Stats.CompileTime = time.Since(start)
	return snap, nil
}

// compiledFrom returns s's class compiled from a record equal to rec in
// Members, CondRouters and Conds, or nil (always nil on a nil s).
func (s *Snapshot) compiledFrom(rec *hoyan.ClassRecord) *Class {
	if s == nil || len(rec.Members) == 0 {
		return nil
	}
	ci, ok := s.prefixClass[rec.Members[0]]
	if !ok {
		return nil
	}
	c := s.Classes[ci]
	if !slices.Equal(c.Members, rec.Members) || !slices.Equal(c.Routers, rec.CondRouters) || !c.conds.Equal(rec.Conds) {
		return nil
	}
	return c
}

// compileClass compiles one validated record over a universe of links
// link variables. Every program is compiled, and so checked against the
// universe, before the conditions are imported into fac: an import
// sizes the factory's variable table by the largest variable it meets.
func compileClass(fac *logic.Factory, rec *hoyan.ClassRecord, links int) (*Class, error) {
	cls := &Class{
		Members:      append([]string(nil), rec.Members...),
		Routers:      append([]string(nil), rec.CondRouters...),
		ClassMinFail: logic.Unfailable,
		routerIdx:    make(map[string]int, len(rec.CondRouters)),
		conds:        rec.Conds,
	}
	for ri, router := range rec.CondRouters {
		prog, err := CompileRoot(rec.Conds, ri)
		if err != nil {
			return nil, fmt.Errorf("router %s: %w", router, err)
		}
		// An empty universe admits no variable at all.
		if int(prog.MaxVar()) >= links {
			return nil, fmt.Errorf("router %s: condition mentions variable %d outside a universe of %d links", router, prog.MaxVar(), links)
		}
		cls.Progs = append(cls.Progs, prog)
		cls.routerIdx[router] = ri
	}
	roots := rec.Conds.Import(fac)
	for ri, prog := range cls.Progs {
		prog.attachDecisions(fac.ExportBDD(roots[ri]))
		reachUp := fac.Eval(roots[ri], nil)
		minFail := fac.MinFailuresToViolate(roots[ri])
		cls.ReachUp = append(cls.ReachUp, reachUp)
		cls.MinFail = append(cls.MinFail, minFail)
		if reachUp && minFail < cls.ClassMinFail {
			cls.ClassMinFail = minFail
		}
	}
	return cls, nil
}

// ClassOf resolves a prefix to its compiled class.
func (s *Snapshot) ClassOf(prefix string) (*Class, bool) {
	i, ok := s.prefixClass[prefix]
	if !ok {
		return nil, false
	}
	return s.Classes[i], true
}

// ResolveLink maps an "a~b" link name (either endpoint order) to its
// variable.
func (s *Snapshot) ResolveLink(name string) (logic.Var, bool) {
	a, b, ok := strings.Cut(name, "~")
	if !ok {
		return 0, false
	}
	v, ok := s.linkVar[canonicalLink(a, b)]
	return v, ok
}

// LinkName returns the canonical name of link variable v.
func (s *Snapshot) LinkName(v logic.Var) string {
	if v < 0 || int(v) >= len(s.linkNames) {
		return ""
	}
	return s.linkNames[v]
}

// Impacted returns the classes whose conditions mention link v, sorted
// by class index, in a fresh slice the caller owns.
func (s *Snapshot) Impacted(v logic.Var) []*Class {
	if v < 0 || int(v) >= len(s.impact) {
		return nil
	}
	out := make([]*Class, len(s.impact[v]))
	for i, ci := range s.impact[v] {
		out[i] = s.Classes[ci]
	}
	return out
}

// NewScratch returns an evaluation scratch pre-sized for the snapshot's
// largest program, so the first query through it already allocates
// nothing.
func (s *Snapshot) NewScratch() *Scratch {
	sc := &Scratch{}
	sc.ensure(s.maxInstrs)
	return sc
}

// NewFailureSet returns a failure set sized for the snapshot's link
// universe.
func (s *Snapshot) NewFailureSet() *FailureSet {
	if s.Stats.Links == 0 {
		return &FailureSet{bits: make([]uint64, 1)}
	}
	return NewFailureSet(logic.Var(s.Stats.Links - 1))
}
