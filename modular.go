package hoyan

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"hoyan/internal/core"
	"hoyan/internal/igp"
	"hoyan/internal/vet"
)

// ModularStats reports what a modular sweep actually did — including,
// loudly, every fallback to monolithic simulation (DESIGN.md, "Modular
// verification": refusal is part of the soundness argument, so it is
// never silent).
type ModularStats struct {
	// Regions is the size of the partition the sweep cut the model into.
	Regions int
	// Passes counts restricted region passes executed (home + import).
	Passes int
	// Refused counts class representatives that fell back to monolithic
	// simulation because a cut could not soundly express their behavior.
	// Audits always re-simulate monolithically and are not counted.
	Refused int
	// Predicted counts prefix classes the static pre-flight
	// (internal/vet's cutsound analyzer) expected the cut to refuse,
	// before any pass was dispatched. The pre-flight is advisory — the
	// authoritative refusal still comes from the core layer at simulation
	// time — but the two counts agreeing on a plain classed sweep is the
	// predictor's accuracy contract.
	Predicted int
	// Fallback is set when the whole sweep ran monolithically because no
	// usable partition exists (region-less BGP speakers, or one region).
	Fallback bool
	// Notes records the refusal reasons (deduplicated, in first-seen order).
	Notes []string
}

// sweepModular runs the representative jobs through the modular schedule
// (core.RunModular) and stores their reports on the jobs. Each round runs
// region by region: a region's passes share one region Shared, built for
// that group and dropped after it, so only one region's working set is
// resident at a time; monolithic passes share the sweep's global Shared.
// Verdicts merge in global node order, so the report folds exactly like
// the monolithic sweepOne.
func sweepModular(model *core.Model, jobs []sweepJob, opts Options, copts core.Options,
	workers int, global func() *core.Shared) (*ModularStats, error) {
	ms := &ModularStats{}
	note := func(reason string) {
		if !slices.Contains(ms.Notes, reason) {
			ms.Notes = append(ms.Notes, reason)
		}
	}

	// Static pre-flight: predict which classes the cut will refuse before
	// any pass runs, so the operator sees the fallback load up front
	// instead of discovering it one wasted home pass at a time.
	pred := vet.PredictRefusals(model, opts.K)
	ms.Predicted = pred.RefusedClasses()
	if ms.Predicted > 0 {
		note(fmt.Sprintf("vet pre-flight: %d of %d classes predicted to refuse the cut", ms.Predicted, len(pred.Classes)))
	}

	// The schedule's units are the representative jobs; replay audits run
	// in the sweep's pool afterwards.
	var units []int
	for i := range jobs {
		if jobs[i].audit == nil {
			units = append(units, i)
		}
	}
	homes := make([]int, len(units))
	var cut *igp.Memo
	pt, err := core.NewPartition(model)
	if err != nil {
		// Global refusal: no usable cut. Every unit runs monolithically.
		ms.Fallback = true
		note(err.Error())
		for u := range homes {
			homes[u] = -1
		}
	} else {
		ms.Regions = pt.NumRegions()
		for u, ji := range units {
			if homes[u], err = pt.FamilyHome(model, jobs[ji].members[0]); err != nil {
				note(err.Error())
			}
		}
		cut = core.CutMemo(model, copts, pt)
	}

	simTime := make([]time.Duration, len(units))
	exec := func(round []core.ModularPass) ([]core.PassResult[core.Verdict], error) {
		out := make([]core.PassResult[core.Verdict], len(round))
		for r := -1; r < ms.Regions; r++ {
			var group []int
			for i, p := range round {
				if p.Region == r {
					group = append(group, i)
				}
			}
			if len(group) == 0 {
				continue
			}
			sh := global
			if r >= 0 {
				rsh := core.NewRegionShared(model, copts, pt, r, cut)
				sh = func() *core.Shared { return rsh }
			}
			// A unit has at most one pass per group, so each goroutine owns
			// its units' out and simTime slots.
			err := runPool(sh, len(group), workers, func(next func() *core.Simulator, i int) error {
				p, pr := round[group[i]], &out[group[i]]
				prefix := jobs[units[p.Unit]].members[0]
				t0 := time.Now()
				var res *core.Result
				var err error
				if r < 0 {
					res, err = next().Run(prefix)
				} else {
					res, pr.Summary, err = next().RunRegion(prefix, pt, r, p.Summary)
				}
				var uc *core.UnsoundCut
				if errors.As(err, &uc) {
					pr.Refused = uc.Reason
				} else if err != nil {
					return err
				} else {
					pr.Verdicts = res.Verdicts(nil, prefix)
				}
				simTime[p.Unit] += time.Since(t0)
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		for _, pr := range out {
			if pr.Refused != "" {
				note(pr.Refused)
			}
		}
		return out, nil
	}
	run, err := core.RunModular(homes, ms.Regions, exec)
	if err != nil {
		return nil, err
	}
	ms.Passes, ms.Refused = run.Passes, run.Refused
	for u, ji := range units {
		vs := run.Verdicts[u]
		slices.SortFunc(vs, func(a, b core.Verdict) int { return cmp.Compare(a.Node, b.Node) })
		jobs[ji].sum, jobs[ji].viols = foldVerdicts(model, jobs[ji].members[0], vs, opts.K, simTime[u])
	}
	return ms, nil
}
