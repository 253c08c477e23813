package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// endToEndNames are the metrics every workload reports with tracing off;
// perLayerNames the ones its traced run reports. BENCHMARK.json lists the
// same names.
var endToEndNames = []string{"setup_s", "peak_rss_mb", "op_p50_ms", "tail_ms"}

var perLayerNames = []string{
	"config.load_ms", "config.apply_ms",
	"core.assemble_ms", "core.classes_ms", "core.classes",
	"core.diff_ms", "core.delta_items",
	"core.plan_ms", "core.dirty_classes", "core.dirty_ratio",
	"core.run_p50_ms", "core.run_p99_ms", "core.run_count",
	"core.branches", "core.dropped_policy", "core.dropped_overk", "core.dropped_impossible",
	"core.delivered", "core.delivered_ratio", "core.steps", "core.max_cond_len",
	"core.memo_hits", "core.memo_hit_ratio",
	"core.partition_ms",
	"core.region_pass_p50_ms", "core.region_pass_p99_ms", "core.region_pass_count", "core.region_refused",
	"igp.shared_ms", "igp.cut_memo_ms", "igp.region_shared_ms",
	"logic.minfail_ms", "logic.nodes",
	"store.save_ms", "store.bytes",
	"qc.compile_ms", "qc.programs", "qc.decisions", "qc.eval_ns",
	"httpapi.publish_ms", "httpapi.handler_p50_us", "httpapi.handler_p99_us", "httpapi.transport_us",
	"dist.passes", "dist.refused", "dist.requeued", "dist.retried", "dist.hedged",
	"vet.predict_ms",
	"runtime.alloc_mb_per_op", "runtime.gc_cycles_per_op", "runtime.gc_pause_ms_per_op",
	"loadgen.late_ms",
	"hoyan.sweep_baseline_self_ms", "hoyan.sweep_incremental_self_ms",
	"httpapi.resweep_self_ms", "dist.run_modular_self_ms",
	"trace.spans", "trace.overhead_ms",
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload hands back to execute.
type outcome struct {
	attempted int
	failed    int
	// failures names each failed check, for the detail record.
	failures []string
	metrics  map[string]value
	// named holds the workload's metrics under the names the README's
	// tables use (audit_s, push_to_active_s, query_qps, ...).
	named map[string]value
	// inputs are the properties of this run's inputs.
	inputs map[string]any
	// spans is the traced run's span log.
	spans []span
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]value{}, named: map[string]value{}, inputs: map[string]any{}}
}

// fail counts one failed operation and remembers why (the first few
// reasons are enough to diagnose a run).
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (o *outcome) result() resultLine {
	return resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics}
}

type detailRecord struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	Named     map[string]value `json:"named_metrics,omitempty"`
	Inputs    map[string]any   `json:"inputs"`
	Spans     []span           `json:"spans,omitempty"`
}

func (o *outcome) detail(cfg *runConfig) detailRecord {
	o.inputs["seed"] = cfg.seed
	o.inputs["gomaxprocs"] = runtime.GOMAXPROCS(0)
	o.inputs["go_version"] = runtime.Version()
	o.inputs["run_seconds"] = cfg.seconds.Seconds()
	return detailRecord{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Attempted: o.attempted, Failed: o.failed, Failures: o.failures,
		Named: o.named, Inputs: o.inputs, Spans: o.spans,
	}
}

// quantile is the linear-interpolation quantile of xs (0 <= q <= 1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeSetup times a workload's set-up, in seconds, then collects the
// garbage set-up left behind. The timed loop then starts from the live
// heap alone, so the collector's pacing during it — its heap goal is
// twice the heap live at the last collection — does not depend on when
// set-up's last collection happened to run.
func timeSetup(setup func() error) (float64, error) {
	t0 := time.Now()
	err := setup()
	d := time.Since(t0).Seconds()
	runtime.GC()
	return d, err
}

// memDelta measures what one operation cost the Go runtime.
type memDelta struct {
	allocMB, gcCycles, pauseMS float64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func deltaMem(before, after runtime.MemStats) memDelta {
	return memDelta{
		allocMB:  float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		gcCycles: float64(after.NumGC - before.NumGC),
		pauseMS:  float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}

// peakRSSMB is the process's resident high-water mark (VmHWM). Where
// /proc is unavailable it falls back to the memory the Go runtime holds
// from the OS, which bounds the heap part of RSS.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	m := readMem()
	return float64(m.Sys) / (1 << 20)
}
