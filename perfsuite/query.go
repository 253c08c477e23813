package main

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"hoyan/internal/httpapi"
)

type queryFixture struct {
	s        *service
	deck     []query
	universe map[string]bool
}

func newQueryFixture(cfg *runConfig) (*queryFixture, error) {
	in, err := generate(cfg.params)
	if err != nil {
		return nil, err
	}
	deck := buildDeck(in, cfg.seed, deckSize)
	if err := expectDeck(in, deck, cfg.threads); err != nil {
		return nil, err
	}
	s, err := startService(in, cfg.threads)
	if err != nil {
		return nil, err
	}
	fx := &queryFixture{s: s, deck: deck, universe: map[string]bool{}}
	for _, p := range in.prefixes {
		fx.universe[p] = true
	}
	return fx, nil
}

// clientResult is one closed-loop client's tally.
type clientResult struct {
	lat       []float64 // ms
	attempted int
	failures  []string
	failed    int
}

// runQuerySteady drives the service's single active snapshot with
// `threads` closed-loop clients, one connection each, cycling through
// the seeded deck from staggered offsets; every answer is checked
// against the simulated expectation.
func runQuerySteady(cfg *runConfig) (*outcome, error) {
	var fx *queryFixture
	setup, err := timeSetup(func() (err error) {
		fx, err = newQueryFixture(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer fx.s.stop()
	if cfg.hooks.deck != nil {
		cfg.hooks.deck(fx.deck)
	}
	o := newOutcome()
	fx.s.in.describe(o)

	results := make([]clientResult, cfg.threads)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	for c := 0; c < cfg.threads; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = queryClient(fx, c*len(fx.deck)/cfg.threads, deadline)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lat []float64
	for _, r := range results {
		lat = append(lat, r.lat...)
		o.attempted += r.attempted
		o.failed += r.failed
		for _, f := range r.failures {
			if len(o.failures) < 20 {
				o.failures = append(o.failures, f)
			}
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no query completed")
	}
	p50, p99 := quantile(lat, 0.5), quantile(lat, 0.99)
	qps := float64(len(lat)) / elapsed.Seconds()
	o.metrics["setup_s"] = value{setup, "s"}
	o.metrics["op_p50_ms"] = value{p50, "ms"}
	o.metrics["tail_ms"] = value{p99, "ms"}
	o.named["query_qps"] = value{qps, "1/s"}
	o.named["query_p50_us"] = value{p50 * 1000, "us"}
	o.named["query_p99_us"] = value{p99 * 1000, "us"}
	o.named["queries"] = value{float64(len(lat)), "count"}
	o.inputs["clients"] = cfg.threads
	o.inputs["deck_size"] = len(fx.deck)
	mix := map[string]int{}
	for _, q := range fx.deck {
		mix[q.Kind]++
	}
	o.inputs["deck_mix"] = mix
	return o, nil
}

func queryClient(fx *queryFixture, offset int, deadline time.Time) clientResult {
	c := newClient(1)
	defer c.CloseIdleConnections()
	var r clientResult
	r.lat = make([]float64, 0, 1<<16)
	for i := offset; time.Now().Before(deadline); i++ {
		q := &fx.deck[i%len(fx.deck)]
		var resp httpapi.QueryResponse
		t0 := time.Now()
		code, err := fx.s.get(c, q.path, &resp)
		d := time.Since(t0)
		r.attempted++
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d", code)
		}
		if err == nil {
			err = q.check(&resp, fx.universe)
		}
		if err != nil {
			r.failed++
			if len(r.failures) < 5 {
				r.failures = append(r.failures, fmt.Sprintf("%s: %v", q.path, err))
			}
			continue
		}
		r.lat = append(r.lat, ms(d))
	}
	return r
}
