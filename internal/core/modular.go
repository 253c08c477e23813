package core

import (
	"fmt"

	"hoyan/internal/behavior"
	"hoyan/internal/logic"
	"hoyan/internal/netaddr"
	"hoyan/internal/route"
)

// sessMode classifies one directed session for a restricted (one-region)
// pass. The classification is purely positional: both endpoints inside
// the region makes the session live, a session leaving the region is
// recorded but never delivered (its final wire view IS the summary), a
// session entering the region carries imported summary messages as a
// pinned contribution, and everything else is dead.
type sessMode uint8

const (
	sessDead    sessMode = iota
	sessActive           // both endpoints in the pass's region
	sessCapture          // leaves the region: computed, not delivered
	sessInject           // enters the region: pinned from a CutSummary
)

// restriction scopes one Simulator.Run to a region of a Partition. Nil
// on a Simulator means monolithic simulation (the default).
type restriction struct {
	pt     *Partition
	region int
	mode   []sessMode // per session index
	in     []bool     // per node: node's region == region
	// contrib holds the pinned post-ingress contribution of each inject
	// session (nil for every other mode).
	contrib [][]Entry
}

// CutMsg is one route update crossing a region cut, as seen on the wire
// (post-egress, pre-ingress — the same vantage point as SessionUpdates).
// Sess indexes the model's deterministic session table, identical across
// every simulator of one model; From/To double-check it on import.
type CutMsg struct {
	Sess     int
	From, To string
	Route    route.Route
	Cond     int // root index into the summary's Conds
}

// CutSummary carries every route a region pass exported across its cuts,
// with conditions exported factory-independently so any later pass — in
// this process or another — can import them. The home pass of a prefix
// family produces the summary; import passes consume it, and their own
// (normally empty) summary is the re-export leak check.
type CutSummary struct {
	Prefix netaddr.Prefix
	Region string
	Msgs   []CutMsg
	Conds  *logic.Portable
}

// UnsoundCut reports that a modular pass detected its cut assumptions do
// not hold for this prefix family — the caller must fall back to a
// monolithic simulation for it. It is a refusal, not a verdict: modular
// mode never guesses when the summary cannot express the behavior.
type UnsoundCut struct {
	Prefix netaddr.Prefix
	Region string
	Reason string
}

func (e *UnsoundCut) Error() string {
	return fmt.Sprintf("core: modular cut unsound for %s in region %s: %s", e.Prefix, e.Region, e.Reason)
}

// RunRegion simulates one prefix family restricted to a region of the
// partition: only the region's internal sessions propagate, routes
// entering over a cut come from the imported summary (nil for the home
// pass, which needs none by the one-hop export property the leak check
// enforces), and routes leaving over a cut are captured into the
// returned summary instead of being delivered. The Result holds the
// converged RIBs of the region's nodes only.
//
// Refusals (an *UnsoundCut error) cover oscillation damping (a frozen
// session has no well-defined final wire view) and re-export leaks: an
// import pass whose own summary is non-empty observed routes crossing a
// second cut, which home-then-import passes cannot deliver.
func (s *Simulator) RunRegion(prefix netaddr.Prefix, pt *Partition, region int, imported *CutSummary) (*Result, *CutSummary, error) {
	if s.restr != nil {
		return nil, nil, fmt.Errorf("core: RunRegion is not reentrant")
	}
	restr := &restriction{
		pt:      pt,
		region:  region,
		mode:    make([]sessMode, len(s.sessions)),
		in:      make([]bool, s.M.Net.NumNodes()),
		contrib: make([][]Entry, len(s.sessions)),
	}
	for id := range restr.in {
		restr.in[id] = pt.nodeRegion[id] == region
	}
	for i := range s.sessions {
		se := &s.sessions[i]
		fr, tr := pt.RegionOf(se.from), pt.RegionOf(se.to)
		switch {
		case fr == region && tr == region:
			restr.mode[i] = sessActive
		case fr == region:
			restr.mode[i] = sessCapture
		case tr == region:
			restr.mode[i] = sessInject
		default:
			restr.mode[i] = sessDead
		}
	}
	if imported != nil {
		if err := s.importSummary(restr, imported); err != nil {
			return nil, nil, err
		}
	}
	s.restr = restr
	res, err := s.Run(prefix)
	s.restr = nil
	if err != nil {
		return nil, nil, err
	}
	if res.Stats.FrozenSessions > 0 {
		return nil, nil, &UnsoundCut{Prefix: prefix, Region: pt.RegionName(region),
			Reason: fmt.Sprintf("%d sessions frozen by oscillation damping", res.Stats.FrozenSessions)}
	}
	out := s.captureSummary(res, restr, prefix)
	if imported != nil && len(out.Msgs) > 0 {
		reason := fmt.Sprintf("%d routes re-exported across a second cut (transit or remote aggregation):", len(out.Msgs))
		for i, msg := range out.Msgs {
			if i == 3 {
				reason += " ..."
				break
			}
			reason += fmt.Sprintf(" %s->%s %s", msg.From, msg.To, msg.Route.Prefix)
		}
		return nil, nil, &UnsoundCut{Prefix: prefix, Region: pt.RegionName(region), Reason: reason}
	}
	return res, out, nil
}

// importSummary pins each inject session's contribution from the
// summary's wire messages: the receiver's ingress pipeline and the
// simplification policy run here, exactly as the live announce would
// have, so the pinned contribution matches the monolithic one entry for
// entry. Messages for sessions that do not enter the pass's region are
// skipped — one home summary serves every import pass.
func (s *Simulator) importSummary(restr *restriction, sum *CutSummary) error {
	if len(sum.Msgs) == 0 {
		return nil
	}
	conds := sum.Conds.Import(s.F)
	for _, msg := range sum.Msgs {
		if msg.Sess < 0 || msg.Sess >= len(s.sessions) {
			return fmt.Errorf("core: modular: summary for %s names session %d of %d", sum.Prefix, msg.Sess, len(s.sessions))
		}
		se := &s.sessions[msg.Sess]
		if from, to := s.M.Net.Node(se.from).Name, s.M.Net.Node(se.to).Name; from != msg.From || to != msg.To {
			return fmt.Errorf("core: modular: summary session %d is %s->%s, expected %s->%s (model mismatch?)",
				msg.Sess, msg.From, msg.To, from, to)
		}
		if restr.mode[msg.Sess] != sessInject {
			continue
		}
		devU, devV := s.M.Devices[se.from], s.M.Devices[se.to]
		ing := devV.ProcessIngress(msg.Route, devU)
		if ing.Verdict != behavior.Pass {
			continue
		}
		cond := conds[msg.Cond]
		if s.Opts.Simplify && s.F.Len(cond) > s.Opts.SimplifyThreshold {
			cond = s.simplifyCond(cond)
		}
		restr.contrib[msg.Sess] = append(restr.contrib[msg.Sess], Entry{Route: ing.Route, Cond: cond})
	}
	return nil
}

// captureSummary exports the final wire view of every capture session.
func (s *Simulator) captureSummary(res *Result, restr *restriction, prefix netaddr.Prefix) *CutSummary {
	out := &CutSummary{Prefix: prefix, Region: restr.pt.RegionName(restr.region)}
	var roots []logic.F
	for si := range s.sessions {
		if restr.mode[si] != sessCapture {
			continue
		}
		se := &s.sessions[si]
		for _, e := range res.sessionMsgs[si] {
			out.Msgs = append(out.Msgs, CutMsg{
				Sess:  si,
				From:  s.M.Net.Node(se.from).Name,
				To:    s.M.Net.Node(se.to).Name,
				Route: e.Route,
				Cond:  len(roots),
			})
			roots = append(roots, e.Cond)
		}
	}
	out.Conds = s.F.Export(roots...)
	return out
}

// ModularPass is one pass of the modular schedule. Region >= 0 is a
// region-restricted pass: the unit's home pass when Summary is nil, an
// import pass of its home pass's Summary otherwise. Region -1 is a
// monolithic pass, for a unit with no home or as the fallback for a
// refused cut.
type ModularPass struct {
	Unit    int
	Region  int
	Summary *CutSummary
}

// PassResult is an executor's answer to one pass. V is the executor's
// per-router verdict: Verdict in process, a wire summary across workers.
type PassResult[V any] struct {
	Verdicts []V
	// Summary is the cut summary a home pass captured.
	Summary *CutSummary
	// Refused is the reason the cut refused the pass (an UnsoundCut).
	Refused string
	// Failed drops the unit from the schedule: the pass failed for a
	// reason other than the cut, and the executor reports the failure.
	Failed bool
}

// ModularRun is the outcome of RunModular.
type ModularRun[V any] struct {
	// Verdicts holds each unit's verdicts: those of its region passes in
	// dispatch order, or those of its monolithic pass. Nil for a unit
	// whose pass failed.
	Verdicts [][]V
	// Passes counts region passes dispatched (home + import).
	Passes int
	// Refused counts units run monolithically: no home, or a refused cut.
	Refused int
	// Rounds counts executor calls.
	Rounds int
}

// RunModular runs the modular schedule over units, given the region
// index of each unit's home (-1 for none) among regions, calling exec
// once per round with that round's passes:
//
//  1. home passes, plus monolithic passes for units with no home;
//  2. import passes of every captured summary into each other region,
//     plus monolithic fallbacks for refused home passes;
//  3. monolithic fallbacks for units an import pass refused.
//
// A fallback's verdicts replace the unit's region verdicts: a summary
// that cannot express one region's view is trusted for none. Within a round,
// fallbacks follow the region passes. exec returns one result per pass,
// in order; its error aborts the schedule.
func RunModular[V any](homes []int, regions int, exec func([]ModularPass) ([]PassResult[V], error)) (*ModularRun[V], error) {
	run := &ModularRun[V]{Verdicts: make([][]V, len(homes))}
	var round []ModularPass
	for u, h := range homes {
		round = append(round, ModularPass{Unit: u, Region: h})
		if h < 0 {
			run.Refused++
		} else {
			run.Passes++
		}
	}
	for len(round) > 0 {
		results, err := exec(round)
		if err != nil {
			return nil, err
		}
		if len(results) != len(round) {
			return nil, fmt.Errorf("core: modular executor answered %d of %d passes", len(results), len(round))
		}
		run.Rounds++
		// Fold the round per unit: a failure drops the unit, a refusal
		// demotes it, a monolithic pass's verdicts replace any region's.
		failed, refused := map[int]bool{}, map[int]bool{}
		homed := map[int]*CutSummary{}
		for i, p := range round {
			r := results[i]
			switch {
			case r.Failed:
				failed[p.Unit] = true
			case p.Region < 0:
				run.Verdicts[p.Unit] = r.Verdicts
			case r.Refused != "" || (p.Summary == nil && r.Summary == nil):
				refused[p.Unit] = true
			default:
				run.Verdicts[p.Unit] = append(run.Verdicts[p.Unit], r.Verdicts...)
				if p.Summary == nil {
					homed[p.Unit] = r.Summary
				}
			}
		}
		var next, fallbacks []ModularPass
		for u := range homes {
			switch {
			case failed[u]:
				run.Verdicts[u] = nil
			case refused[u]:
				run.Refused++
				fallbacks = append(fallbacks, ModularPass{Unit: u, Region: -1})
			case homed[u] != nil:
				for r := 0; r < regions; r++ {
					if r != homes[u] {
						next = append(next, ModularPass{Unit: u, Region: r, Summary: homed[u]})
						run.Passes++
					}
				}
			}
		}
		round = append(next, fallbacks...)
	}
	return run, nil
}
