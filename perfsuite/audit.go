package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"hoyan"
	"hoyan/internal/core"
	"hoyan/internal/dist"
	"hoyan/internal/vet"
)

// auditRef is the reference a cold audit is checked against.
type auditRef struct {
	report *hoyan.SweepReport
	digest string // store digest without SimTime
}

type auditFixture struct {
	in  *wanInputs
	dir string // the generated config directory
	ref auditRef
}

// auditResult is one cold audit's output.
type auditResult struct {
	report *hoyan.SweepReport
	digest string // without SimTime
	raw    string // digest of the saved bytes
	bytes  int64
}

// coldAudit is the nightly whole-WAN audit: load the config directory,
// sweep it cold with a baseline capture, save the store.
func coldAudit(dir, storePath string, workers int) (*auditResult, error) {
	n, err := hoyan.LoadDirectory(dir)
	if err != nil {
		return nil, err
	}
	rep, st, err := n.SweepBaseline(hoyan.Options{K: k}, workers)
	if err != nil {
		return nil, err
	}
	if err := st.Save(storePath); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(storePath)
	if err != nil {
		return nil, err
	}
	d, err := storeDigest(st)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	return &auditResult{report: rep, digest: d, raw: hex.EncodeToString(sum[:]), bytes: int64(len(raw))}, nil
}

// storeDigest hashes a store with the wall-clock SimTime fields zeroed:
// the one field that keeps two identical sweeps from writing identical
// bytes today.
func storeDigest(st *hoyan.ResultStore) (string, error) {
	cp := *st
	cp.Classes = append([]hoyan.ClassRecord(nil), st.Classes...)
	for i := range cp.Classes {
		cp.Classes[i].Summary.SimTime = 0
	}
	b, err := json.Marshal(&cp)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// comparable strips the wall-clock fields (Duration, SimTime) from a
// report so two audits of the same WAN compare equal.
func comparable(r *hoyan.SweepReport) hoyan.SweepReport {
	cp := *r
	cp.Duration = 0
	cp.Prefixes = append([]hoyan.PrefixSummary(nil), r.Prefixes...)
	for i := range cp.Prefixes {
		cp.Prefixes[i].SimTime = 0
	}
	return cp
}

func sameReport(a, b *hoyan.SweepReport) bool {
	return reflect.DeepEqual(comparable(a), comparable(b))
}

func newAuditFixture(cfg *runConfig) (*auditFixture, error) {
	in, err := generate(cfg.params)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.work, "wan")
	if err := in.w.WriteDir(dir); err != nil {
		return nil, err
	}
	ref, err := coldAudit(dir, filepath.Join(cfg.work, "ref-store.json"), cfg.threads)
	if err != nil {
		return nil, fmt.Errorf("reference audit: %w", err)
	}
	return &auditFixture{in: in, dir: dir, ref: auditRef{report: ref.report, digest: ref.digest}}, nil
}

// runAuditCold is a closed loop of cold audits, each checked against the
// set-up reference.
func runAuditCold(cfg *runConfig) (*outcome, error) {
	var fx *auditFixture
	setup, err := timeSetup(func() (err error) {
		fx, err = newAuditFixture(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	if cfg.hooks.reference != nil {
		cfg.hooks.reference(&fx.ref)
	}
	o := newOutcome()
	fx.in.describe(o)
	var times []float64
	digestStable, rawIdentical := true, true
	var firstRaw string
	var storeBytes int64
	start := time.Now()
	for i := 0; time.Since(start) < cfg.seconds || i < cfg.minOps; i++ {
		t0 := time.Now()
		res, err := coldAudit(fx.dir, filepath.Join(cfg.work, "store.json"), cfg.threads)
		d := time.Since(t0)
		o.attempted++
		if err != nil {
			o.fail("audit %d: %v", i, err)
			continue
		}
		times = append(times, ms(d))
		if !sameReport(res.report, fx.ref.report) {
			o.fail("audit %d: report differs from the set-up reference", i)
		}
		if res.digest != fx.ref.digest {
			digestStable = false
		}
		if firstRaw == "" {
			firstRaw = res.raw
		} else if res.raw != firstRaw {
			rawIdentical = false
		}
		storeBytes = res.bytes
	}
	elapsed := time.Since(start)
	if len(times) == 0 {
		return nil, fmt.Errorf("no audit completed: %v", o.failures)
	}
	p50 := quantile(times, 0.5)
	o.metrics["setup_s"] = value{setup, "s"}
	o.metrics["op_p50_ms"] = value{p50, "ms"}
	o.metrics["tail_ms"] = value{maxOf(times), "ms"}
	o.named["audit_s"] = value{p50 / 1000, "s"}
	o.named["audits"] = value{float64(len(times)), "count"}
	o.named["audits_per_s"] = value{float64(len(times)) / elapsed.Seconds(), "1/s"}
	o.inputs["sweep_workers"] = cfg.threads
	o.inputs["store_bytes"] = storeBytes
	o.inputs["store_digest"] = fx.ref.digest
	o.inputs["store_digest_stable"] = digestStable
	o.inputs["store_bytes_identical"] = rawIdentical
	o.inputs["violations"] = len(fx.ref.report.Violations)
	return o, nil
}

// distFixture is the WAN split for a modular audit plus the local
// monolithic verdicts it must reproduce.
type distFixture struct {
	in        *wanInputs
	classes   []dist.ModularClass
	reference verdictMap
	predicted int // classes vet predicts will refuse the cut
}

// modularClasses splits the WAN's behavior classes for RunModular: each
// class with the region its family originates in, or no home when the
// family spans regions (a caller-side refusal).
func modularClasses(in *wanInputs) ([]dist.ModularClass, error) {
	pt, err := core.NewPartition(in.model)
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	var out []dist.ModularClass
	for _, cl := range in.classes {
		mc := dist.ModularClass{}
		for _, p := range cl.Members {
			mc.Members = append(mc.Members, p.String())
		}
		if hi, err := pt.FamilyHome(in.model, cl.Rep); err == nil {
			mc.Home = pt.RegionName(hi)
		}
		out = append(out, mc)
	}
	return out, nil
}

func newDistFixture(cfg *runConfig) (*distFixture, error) {
	in, err := generate(cfg.params)
	if err != nil {
		return nil, err
	}
	fx := &distFixture{in: in, predicted: vet.PredictRefusals(in.model, k).RefusedClasses()}
	if fx.classes, err = modularClasses(in); err != nil {
		return nil, err
	}
	if fx.reference, err = localVerdicts(in, cfg.threads); err != nil {
		return nil, err
	}
	// The first modular run in a process pays one-time costs no later run
	// does; take it here.
	if _, _, err := runModular(in, fx.classes, cfg.threads); err != nil {
		return nil, fmt.Errorf("warm-up modular audit: %w", err)
	}
	return fx, nil
}

// runModular is one distributed modular audit over `workers` fresh
// in-process workers on loopback: their model and region caches start
// cold, as for a newly loaded snapshot. Only RunModular is timed.
func runModular(in *wanInputs, classes []dist.ModularClass, workers int) (*dist.Result, time.Duration, error) {
	var addrs []string
	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	for i := 0; i < workers; i++ {
		wk := dist.NewWorker(in.w.Net, in.w.Snap)
		// One region Shared per region plus the global one the
		// monolithic fallback builds.
		wk.MaxShared = len(in.regions) + 2
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, 0, err
		}
		done := make(chan error, 1)
		go func() { done <- wk.Serve(ln) }()
		addrs = append(addrs, ln.Addr().String())
		stops = append(stops, func() {
			wk.Close()
			<-done
		})
	}
	t0 := time.Now()
	res, err := (&dist.Coordinator{Addrs: addrs}).RunModular(classes, in.regions, k)
	return res, time.Since(t0), err
}

// runAuditDist is a closed loop of distributed modular audits, each
// checked verdict for verdict against the local monolithic report.
func runAuditDist(cfg *runConfig) (*outcome, error) {
	var fx *distFixture
	setup, err := timeSetup(func() (err error) {
		fx, err = newDistFixture(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	if cfg.hooks.verdicts != nil {
		cfg.hooks.verdicts(fx.reference)
	}
	o := newOutcome()
	fx.in.describe(o)
	var times []float64
	var last *dist.Result
	start := time.Now()
	for i := 0; time.Since(start) < cfg.seconds || i < cfg.minOps; i++ {
		res, d, err := runModular(fx.in, fx.classes, cfg.threads)
		o.attempted++
		if err != nil {
			o.fail("modular audit %d: %v", i, err)
			continue
		}
		times = append(times, ms(d))
		last = res
		if len(res.Failed) > 0 {
			o.fail("modular audit %d: %d prefixes failed", i, len(res.Failed))
		} else if err := diffVerdicts(fx.reference, verdictMap(res.ByPrefix)); err != nil {
			o.fail("modular audit %d differs from the local monolithic report: %v", i, err)
		}
	}
	elapsed := time.Since(start)
	if len(times) == 0 {
		return nil, fmt.Errorf("no modular audit completed: %v", o.failures)
	}
	p50 := quantile(times, 0.5)
	o.metrics["setup_s"] = value{setup, "s"}
	o.metrics["op_p50_ms"] = value{p50, "ms"}
	o.metrics["tail_ms"] = value{maxOf(times), "ms"}
	o.named["audit_dist_s"] = value{p50 / 1000, "s"}
	o.named["audits"] = value{float64(len(times)), "count"}
	o.named["audits_per_s"] = value{float64(len(times)) / elapsed.Seconds(), "1/s"}
	o.inputs["dist_workers"] = cfg.threads
	o.inputs["modular_passes"] = last.ModularPasses
	o.inputs["refused_classes"] = last.ModularRefused
	o.inputs["predicted_refused_classes"] = fx.predicted
	o.inputs["requeued"] = last.Requeued
	o.inputs["retried"] = last.Retried
	o.inputs["hedged"] = last.Hedged
	return o, nil
}
