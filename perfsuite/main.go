// Command hoyanperf is hoyan's standing benchmark: four workloads on one
// generated WAN, each measured end to end with tracing off, plus a
// separate traced run that times the calls into every layer. See
// README.md for the workloads, the metrics and the predictions they test.
//
//	hoyanperf -workload audit-cold -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is the result object:
//
//	{"correct":true,"attempted":3,"failed":0,"metrics":{...}}
//
// The line before it is the run's detail record (the named metrics of the
// workload, the input properties and every failed check); the same record,
// with a traced run's span log, is also written under -work/results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hoyan/internal/gen"
)

// runConfig is one benchmark run.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// params is the WAN every workload runs on. The seed never reaches
	// it: see README.md, "Why the WAN is fixed".
	params gen.Params
	work   string
	// minOps is the floor on timed operations for the workloads whose
	// operation takes seconds, so every median rests on at least this
	// many samples whatever the run length.
	minOps  int
	threads int
	hooks   hooks
}

// hooks let the benchmark's own tests break one output on purpose, to
// show that the check on it fires. All are nil in a real run.
type hooks struct {
	reference func(*auditRef)     // audit-cold: the set-up reference report
	verdicts  func(verdictMap)    // audit-dist: the local monolithic verdicts
	deck      func([]query)       // query-steady: the expected answers
	reply     func(*resweepReply) // push-query: each parsed push reply
}

const (
	// queryRate is the open-loop reader rate of push-query, per second.
	queryRate = 500
	// deckSize is the number of queries in the seeded deck.
	deckSize = 512
)

var workloads = map[string]func(*runConfig) (*outcome, error){
	"audit-cold":   runAuditCold,
	"push-query":   runPushQuery,
	"query-steady": runQuerySteady,
	"audit-dist":   runAuditDist,
}

func main() {
	cfg := &runConfig{
		params:  gen.Medium(),
		minOps:  3,
		threads: runtime.GOMAXPROCS(0),
	}
	var secs, trace int
	flag.StringVar(&cfg.workload, "workload", "", "audit-cold, push-query, query-steady or audit-dist")
	flag.Int64Var(&cfg.seed, "seed", 1, "derives the push series and the query deck")
	flag.IntVar(&secs, "seconds", 10, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced layer-by-layer pipeline instead")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory for generated inputs and results")
	flag.Parse()
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "hoyanperf: want -workload one of audit-cold, push-query, query-steady, audit-dist, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	if err := execute(cfg, run, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hoyanperf:", err)
		os.Exit(1)
	}
}

// execute runs one workload (or its traced pipeline) in a fresh scratch
// directory, then prints the detail record and the result line.
func execute(cfg *runConfig, run func(*runConfig) (*outcome, error), stdout io.Writer) error {
	mode := "e2e"
	if cfg.trace {
		mode = "trace"
		run = runTraced
	}
	name := fmt.Sprintf("%s-seed%d-%s", cfg.workload, cfg.seed, mode)
	base := cfg.work
	cfg.work = filepath.Join(base, name)
	if err := os.RemoveAll(cfg.work); err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	out, err := run(cfg)
	if err != nil {
		return err
	}
	out.metrics["peak_rss_mb"] = value{peakRSSMB(), "MB"}
	names := endToEndNames
	if cfg.trace {
		names = perLayerNames
	}
	if out.metrics, err = pick(out.metrics, names); err != nil {
		return err
	}
	detail := out.detail(cfg)
	if err := writeJSON(filepath.Join(base, "results", name+".json"), detail); err != nil {
		return err
	}
	if err := os.RemoveAll(cfg.work); err != nil {
		return err
	}
	// The span log goes to the results file only; standard output keeps
	// the detail record to one readable line.
	detail.Spans = nil
	line, err := json.Marshal(detail)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	res, err := json.Marshal(out.result())
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(res))
	return nil
}

// pick keeps exactly the named metrics; a missing one is a bug in the
// workload that must not pass silently.
func pick(all map[string]value, names []string) (map[string]value, error) {
	out := make(map[string]value, len(names))
	var missing []string
	for _, n := range names {
		v, ok := all[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		out[n] = v
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return out, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
