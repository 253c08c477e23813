package bench

import (
	"fmt"
	"time"

	"hoyan"
	"hoyan/internal/gen"
)

// ModularMetrics are the raw numbers behind the modular-verification
// experiment, recorded as the sweep_monolithic / sweep_modular metric
// groups of the BENCH_PR8.json that `hoyanbench -exp modular` writes on
// demand (none is committed; the standing distributed modular number is
// perfsuite's audit-dist workload).
type ModularMetrics struct {
	Routers  int
	Prefixes int
	Classes  int
	Regions  int
	Workers  int
	K        int

	MonoSeconds  float64
	MonoPeakHeap uint64
	MonoRSS      uint64

	ModSeconds  float64
	ModPeakHeap uint64
	ModRSS      uint64
	Passes      int
	Refused     int

	SpeedupTime float64 // monolithic / modular wall-clock
	SavingsHeap float64 // monolithic / modular peak live heap
}

// ModularSweep measures one generated WAN end to end both ways: a
// modular sweep (per-region passes stitched through interface summaries)
// and the monolithic sweep it replaces. Both timings are wall clock
// around Network.Sweep with peak-memory tracking; the modular run goes
// first so its kernel RSS high-water is not inflated by the monolithic
// working set (VmHWM is process-lifetime monotone — only the first
// workload gets a clean reading; the sampled live-heap peaks are
// per-window and comparable in both directions). The reports must agree
// on every verdict — a mismatch fails the experiment rather than
// producing numbers for a broken mode.
func ModularSweep(params gen.Params, k, workers int) (Table, *ModularMetrics, error) {
	w, err := gen.Generate(params)
	if err != nil {
		return Table{}, nil, err
	}
	n := liftWAN(w)

	tr := TrackPeak()
	t0 := time.Now()
	mod, err := n.Sweep(hoyan.Options{K: k, Modular: true}, workers)
	if err != nil {
		return Table{}, nil, fmt.Errorf("modular sweep: %w", err)
	}
	modWall := time.Since(t0)
	modPeak := tr.Stop()
	if mod.Modular == nil || mod.Modular.Fallback {
		return Table{}, nil, fmt.Errorf("modular sweep fell back to monolithic: %v", mod.Modular)
	}

	tr = TrackPeak()
	t0 = time.Now()
	mono, err := n.Sweep(hoyan.Options{K: k}, workers)
	if err != nil {
		return Table{}, nil, fmt.Errorf("monolithic sweep: %w", err)
	}
	monoWall := time.Since(t0)
	monoPeak := tr.Stop()

	if err := sameReports(mono, mod); err != nil {
		return Table{}, nil, fmt.Errorf("modular and monolithic reports disagree: %w", err)
	}

	m := &ModularMetrics{
		Routers:      w.Net.NumNodes(),
		Prefixes:     len(mono.Prefixes),
		Classes:      mono.Classes,
		Regions:      mod.Modular.Regions,
		Workers:      workers,
		K:            k,
		MonoSeconds:  monoWall.Seconds(),
		MonoPeakHeap: monoPeak.HeapAllocBytes,
		MonoRSS:      monoPeak.RSSBytes,
		ModSeconds:   modWall.Seconds(),
		ModPeakHeap:  modPeak.HeapAllocBytes,
		ModRSS:       modPeak.RSSBytes,
		Passes:       mod.Modular.Passes,
		Refused:      mod.Modular.Refused,
		SpeedupTime:  monoWall.Seconds() / modWall.Seconds(),
		SavingsHeap:  float64(monoPeak.HeapAllocBytes) / float64(modPeak.HeapAllocBytes),
	}

	t := Table{
		Title: fmt.Sprintf("Modular verification — %d routers, %d regions, %d prefixes (k=%d, %d workers)",
			m.Routers, m.Regions, m.Prefixes, k, workers),
		Header: []string{"mode", "wall", "peak heap", "peak rss", "passes", "refused"},
		Rows: [][]string{
			{"monolithic", fmtDur(monoWall), fmtBytes(monoPeak.HeapAllocBytes), fmtBytes(monoPeak.RSSBytes), "-", "-"},
			{"modular", fmtDur(modWall), fmtBytes(modPeak.HeapAllocBytes), fmtBytes(modPeak.RSSBytes),
				fmt.Sprint(m.Passes), fmt.Sprint(m.Refused)},
		},
		Notes: []string{
			fmt.Sprintf("wall-clock monolithic/modular: %.2fx; peak live heap monolithic/modular: %.2fx", m.SpeedupTime, m.SavingsHeap),
			"reports verified identical verdict-for-verdict before recording",
		},
	}
	return t, m, nil
}

// sameReports compares every verdict of two sweep reports.
func sameReports(a, b *hoyan.SweepReport) error {
	if len(a.Prefixes) != len(b.Prefixes) {
		return fmt.Errorf("prefix counts differ: %d vs %d", len(a.Prefixes), len(b.Prefixes))
	}
	for i := range a.Prefixes {
		x, y := a.Prefixes[i], b.Prefixes[i]
		if x.Prefix != y.Prefix || x.MinFailures != y.MinFailures || x.WeakestRouter != y.WeakestRouter {
			return fmt.Errorf("prefix %d: %+v vs %+v", i, x, y)
		}
	}
	if len(a.Violations) != len(b.Violations) {
		return fmt.Errorf("violation counts differ: %d vs %d", len(a.Violations), len(b.Violations))
	}
	for i := range a.Violations {
		x, y := a.Violations[i], b.Violations[i]
		if x != y {
			return fmt.Errorf("violation %d: %+v vs %+v", i, x, y)
		}
	}
	return nil
}

// fmtBytes renders a byte count at MiB granularity.
func fmtBytes(b uint64) string {
	return fmt.Sprintf("%.1f MiB", float64(b)/(1024*1024))
}
