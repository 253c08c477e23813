package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hoyan/internal/gen"
)

// smallConfig runs a workload once on gen.Small: a one-second run with
// one timed operation at least.
func smallConfig(t *testing.T, workload string) *runConfig {
	t.Helper()
	return &runConfig{
		workload: workload, seed: 7, seconds: time.Second,
		params: gen.Small(), work: t.TempDir(),
		minOps: 1, threads: 2,
	}
}

// lastLine runs execute and decodes the result line it prints last.
func lastLine(t *testing.T, cfg *runConfig) resultLine {
	t.Helper()
	var out bytes.Buffer
	if err := execute(cfg, workloads[cfg.workload], &out); err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: result line %q: %v", cfg.workload, lines[len(lines)-1], err)
	}
	return res
}

func TestWorkloadsPassAndReportEveryMetric(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res := lastLine(t, smallConfig(t, name))
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(endToEndNames) {
				t.Fatalf("%d metrics, want %d", len(res.Metrics), len(endToEndNames))
			}
			for _, m := range endToEndNames {
				if v, ok := res.Metrics[m]; !ok || v.Value <= 0 {
					t.Errorf("metric %s = %+v, want a positive measurement", m, v)
				}
			}
		})
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	cfg := smallConfig(t, "push-query")
	cfg.trace = true
	res := lastLine(t, cfg)
	if !res.Correct {
		t.Fatalf("traced run failed %d of %d operations", res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(perLayerNames) {
		t.Fatalf("%d per-layer metrics, want %d", len(res.Metrics), len(perLayerNames))
	}
	for _, m := range []string{"core.run_p50_ms", "qc.compile_ms", "core.region_pass_count", "dist.passes", "httpapi.handler_p50_us"} {
		if res.Metrics[m].Value <= 0 {
			t.Errorf("%s = %v, want > 0", m, res.Metrics[m].Value)
		}
	}
}

// Each output check must turn a wrong answer into a failed operation.

func TestFlippedAuditVerdictFails(t *testing.T) {
	cfg := smallConfig(t, "audit-cold")
	cfg.hooks.reference = func(ref *auditRef) {
		ref.report.Prefixes[0].MinFailures++
	}
	o, err := runAuditCold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed == 0 || o.failed != o.attempted {
		t.Fatalf("failed %d of %d audits, want all", o.failed, o.attempted)
	}
}

func TestFlippedModularVerdictFails(t *testing.T) {
	cfg := smallConfig(t, "audit-dist")
	cfg.hooks.verdicts = func(vm verdictMap) {
		for _, vs := range vm {
			vs[0].Reachable = !vs[0].Reachable
			return
		}
	}
	o, err := runAuditDist(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed == 0 || o.failed != o.attempted {
		t.Fatalf("failed %d of %d modular audits, want all", o.failed, o.attempted)
	}
}

func TestTamperedExpectedAnswerFails(t *testing.T) {
	for _, kind := range []string{"reach", "minfail", "impact"} {
		t.Run(kind, func(t *testing.T) {
			cfg := smallConfig(t, "query-steady")
			tampered := ""
			cfg.hooks.deck = func(deck []query) {
				for i := range deck {
					q := &deck[i]
					if q.Kind != kind {
						continue
					}
					switch kind {
					case "reach":
						q.reachable = !q.reachable
					case "minfail":
						q.minFail += 7
					case "impact":
						q.mustInclude = append(q.mustInclude, "203.0.113.0/24")
					}
					tampered = q.path
					return
				}
			}
			o, err := runQuerySteady(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tampered == "" {
				t.Fatalf("deck holds no %s query", kind)
			}
			if o.failed == 0 {
				t.Fatalf("%d queries, none failed after tampering %s", o.attempted, tampered)
			}
			for _, f := range o.failures {
				if !strings.HasPrefix(f, tampered+":") {
					t.Fatalf("an untampered query failed: %s", f)
				}
			}
		})
	}
}

func TestSnapshotErrorReplyFails(t *testing.T) {
	cfg := smallConfig(t, "push-query")
	pushes := 0
	cfg.hooks.reply = func(r *resweepReply) {
		pushes++
		r.body.SnapshotError = "qc: injected compile failure"
	}
	o, err := runPushQuery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pushes == 0 || o.failed != pushes {
		t.Fatalf("%d failed operations for %d pushes replying snapshot_error", o.failed, pushes)
	}
}

func TestOpenLoopReportsLateness(t *testing.T) {
	// A server that takes 20ms per query cannot keep up with 200 q/s over
	// one connection: sends fall behind schedule, and each query's latency
	// counts from when it was due, so it includes that lateness.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
		w.Write([]byte(`{"kind":"reach"}`))
	}))
	defer srv.Close()
	s := &service{base: srv.URL}
	stop := make(chan struct{})
	done := make(chan *openLoop, 1)
	go func() { done <- runOpenLoop(s, []query{{path: "/v1/query?kind=reach"}}, 200, stop) }()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	ol := <-done
	if ol.attempted < 3 || ol.failed != 0 {
		t.Fatalf("attempted %d, failed %d (%s)", ol.attempted, ol.failed, ol.firstErr)
	}
	late := maxOf(ol.late)
	if late < 20 {
		t.Fatalf("generator reported %.1fms late at most, want >= 20ms", late)
	}
	last := len(ol.lat) - 1
	if ol.lat[last] < ol.late[last] {
		t.Fatalf("latency %.1fms excludes its own lateness %.1fms", ol.lat[last], ol.late[last])
	}
}
