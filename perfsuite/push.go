package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"hoyan"
	"hoyan/internal/config"
	"hoyan/internal/httpapi"
)

type pushFixture struct {
	s      *service
	pushes []push
	deck   []query
}

func newPushFixture(cfg *runConfig) (*pushFixture, error) {
	in, err := generate(cfg.params)
	if err != nil {
		return nil, err
	}
	s, err := startService(in, cfg.threads)
	if err != nil {
		return nil, err
	}
	return &pushFixture{s: s, pushes: pushSeries(in.w, cfg.seed, 64), deck: buildDeck(in, cfg.seed, deckSize)}, nil
}

// checkPush is the per-push output check: 200, incremental, no
// snapshot_error, and a newly active snapshot id.
func checkPush(r resweepReply, prev string) error {
	switch {
	case r.status != http.StatusOK:
		return fmt.Errorf("status %d", r.status)
	case !r.body.Incremental:
		return fmt.Errorf("resweep was not incremental")
	case r.body.SnapshotError != "":
		return fmt.Errorf("snapshot_error %q", r.body.SnapshotError)
	case r.body.Snapshot == "" || r.body.Snapshot == prev:
		return fmt.Errorf("no newly active snapshot (got %q, previous %q)", r.body.Snapshot, prev)
	}
	return nil
}

// pushRecord is one push's input properties and cost.
type pushRecord struct {
	push
	Seconds     float64        `json:"seconds"`
	DeviceTaint bool           `json:"device_taint"`
	Dirty       int            `json:"dirty_classes"`
	Classes     int            `json:"classes"`
	DirtyShare  float64        `json:"dirty_share"`
	DeltaKinds  map[string]int `json:"delta_kinds,omitempty"`
	// Queries were due while the push was in flight; QueryP99MS is
	// their p99 latency.
	Queries    int     `json:"queries"`
	QueryP99MS float64 `json:"query_p99_ms"`
}

// runPushQuery sends the seeded push series back to back through POST
// /v1/resweep (closed loop, one sweep worker) while an open loop of
// readers queries the service at a fixed rate over one connection.
func runPushQuery(cfg *runConfig) (*outcome, error) {
	var fx *pushFixture
	setup, err := timeSetup(func() (err error) {
		fx, err = newPushFixture(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer fx.s.stop()
	o := newOutcome()
	fx.s.in.describe(o)

	stop := make(chan struct{})
	readers := make(chan *openLoop, 1)
	go func() { readers <- runOpenLoop(fx.s, fx.deck, queryRate, stop) }()

	c := newClient(1)
	defer c.CloseIdleConnections()
	var times []float64
	var windows [][2]time.Time // each push's send and reply
	var records []pushRecord
	var applied []config.Update
	start := time.Now()
	// Run for the run length and until minOps prefix-scoped pushes are
	// in, but stop at twice minOps pushes: a device-taint push re-simulates
	// every class and takes twice as long.
	scoped := 0
	for i := 0; (time.Since(start) < cfg.seconds || scoped < cfg.minOps) && i < 2*cfg.minOps && i < len(fx.pushes); i++ {
		p := fx.pushes[i]
		req := httpapi.ResweepRequest{Workers: 1, Updates: []httpapi.ResweepUpdate{{Device: p.Device, Lines: p.Lines}}}
		t0 := time.Now()
		r, err := fx.s.resweep(c, req)
		d := time.Since(t0)
		o.attempted++
		if err != nil {
			o.fail("push %d: %v", i, err)
			continue
		}
		applied = append(applied, config.Update{Device: p.Device, Lines: p.Lines})
		if cfg.hooks.reply != nil {
			cfg.hooks.reply(&r)
		}
		if err := checkPush(r, fx.s.active); err != nil {
			o.fail("push %d (%s): %v", i, p.Desc, err)
		} else {
			fx.s.active = r.body.Snapshot
		}
		times = append(times, ms(d))
		windows = append(windows, [2]time.Time{t0, t0.Add(d)})
		rec := pushRecord{push: p, Seconds: d.Seconds(), Classes: r.body.Classes}
		if inv := r.body.Invalidation; inv != nil {
			rec.Dirty, rec.DeltaKinds = inv.ClassesDirty, inv.DeltaKinds
		}
		// A delta item scoped to every class that touched its device
		// prints as "[device-taint]"; the others name their prefixes.
		for _, line := range r.body.Delta {
			rec.DeviceTaint = rec.DeviceTaint || strings.Contains(line, "[device-taint]")
		}
		if rec.Classes > 0 {
			rec.DirtyShare = float64(rec.Dirty) / float64(rec.Classes)
		}
		if !rec.DeviceTaint {
			scoped++
		}
		records = append(records, rec)
	}
	elapsed := time.Since(start)
	close(stop)
	ol := <-readers
	if len(times) == 0 {
		return nil, fmt.Errorf("no push completed: %v", o.failures)
	}
	o.attempted += ol.attempted
	for i := 0; i < ol.failed; i++ {
		o.fail("reader: %s", ol.firstErr)
	}

	// Outside the timed section: the state the pushes left must equal a
	// cold sweep of the final configs.
	o.attempted++
	if err := checkFinalState(fx.s, applied, cfg.threads); err != nil {
		o.fail("final pushed state: %v", err)
	}

	// The bounded figures come from prefix-scoped pushes: which pushes of
	// a seeded series taint a whole device varies by seed, and such a push
	// costs twice as much, so a median over the mix would measure the mix.
	// Device-taint pushes are still sent, checked and reported below.
	var scopedTimes, taintTimes, scopedLat []float64
	for i, rec := range records {
		lat := ol.window(windows[i][0], windows[i][1])
		records[i].Queries = len(lat)
		records[i].QueryP99MS = quantile(lat, 0.99)
		if rec.DeviceTaint {
			taintTimes = append(taintTimes, times[i])
			continue
		}
		scopedTimes = append(scopedTimes, times[i])
		scopedLat = append(scopedLat, lat...)
	}
	headline := "prefix-scoped pushes"
	if len(scopedTimes) == 0 {
		headline = "all pushes (none was prefix-scoped)"
		scopedTimes, scopedLat = times, ol.lat
	}
	o.inputs["op_p50_ms_over"] = headline
	p50 := quantile(scopedTimes, 0.5)
	tail := quantile(scopedLat, 0.90)
	o.metrics["setup_s"] = value{setup, "s"}
	o.metrics["op_p50_ms"] = value{p50, "ms"}
	o.metrics["tail_ms"] = value{tail, "ms"}
	o.named["push_to_active_s"] = value{quantile(times, 0.5) / 1000, "s"}
	o.named["push_to_active_prefix_scoped_s"] = value{p50 / 1000, "s"}
	if len(taintTimes) > 0 {
		o.named["push_to_active_device_taint_s"] = value{quantile(taintTimes, 0.5) / 1000, "s"}
	}
	o.named["push_query_p50_ms"] = value{quantile(ol.lat, 0.5), "ms"}
	o.named["push_query_p90_ms"] = value{quantile(ol.lat, 0.90), "ms"}
	o.named["push_query_p99_ms"] = value{quantile(ol.lat, 0.99), "ms"}
	o.named["push_scoped_query_p90_ms"] = value{tail, "ms"}
	o.named["push_scoped_query_p99_ms"] = value{quantile(scopedLat, 0.99), "ms"}
	o.named["pushes_per_s"] = value{float64(len(times)) / elapsed.Seconds(), "1/s"}
	o.named["pushes"] = value{float64(len(times)), "count"}
	o.named["queries"] = value{float64(len(ol.lat)), "count"}
	o.named["loadgen_late_max_ms"] = value{maxOf(ol.late), "ms"}
	o.inputs["pushes"] = records
	o.inputs["query_rate"] = queryRate
	o.inputs["deck_size"] = len(fx.deck)
	return o, nil
}

// checkFinalState compares what the service serves after the pushes with
// a cold sweep of the final configs: every prefix's class-level
// min-failures and every speaker's all-links-up reachability.
func checkFinalState(s *service, applied []config.Update, threads int) error {
	final, err := s.in.w.Snap.Apply(applied)
	if err != nil {
		return err
	}
	rep, err := hoyan.NetworkFrom(s.in.w.Net, final).Sweep(hoyan.Options{K: k}, threads)
	if err != nil {
		return fmt.Errorf("cold sweep: %w", err)
	}
	unreachable := map[string]bool{}
	for _, v := range rep.Violations {
		unreachable[v.Prefix+"@"+v.Router] = true
	}
	ask := func(v url.Values) (httpapi.QueryResponse, error) {
		var r httpapi.QueryResponse
		rec := s.serveLocal("/v1/query?" + v.Encode())
		if rec.Code != http.StatusOK {
			return r, fmt.Errorf("query %v: status %d: %s", v, rec.Code, rec.Body.String())
		}
		return r, json.Unmarshal(rec.Body.Bytes(), &r)
	}
	for _, sum := range rep.Prefixes {
		r, err := ask(url.Values{"kind": {"minfail"}, "prefix": {sum.Prefix}})
		if err != nil {
			return err
		}
		if r.MinFailures == nil || *r.MinFailures != sum.MinFailures {
			return fmt.Errorf("%s: served min-failures %v, cold sweep %d", sum.Prefix, r.MinFailures, sum.MinFailures)
		}
		for _, router := range s.in.speakers {
			r, err := ask(url.Values{"kind": {"reach"}, "prefix": {sum.Prefix}, "router": {router}})
			if err != nil {
				return err
			}
			if want := !unreachable[sum.Prefix+"@"+router]; r.Reachable == nil || *r.Reachable != want {
				return fmt.Errorf("%s@%s: served reachable %v, cold sweep %v", sum.Prefix, router, r.Reachable, want)
			}
		}
	}
	return nil
}
