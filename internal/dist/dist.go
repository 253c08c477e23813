// Package dist distributes per-prefix verification across worker
// processes — the deployment note of §8: "Hoyan could be run in a
// distributed way to get better performance". The unit of distribution is
// the same as the paper's unit of parallelism: one prefix simulation, and
// the same per-prefix independence that lets Plankton partition its
// model-checking work makes every job here safely retryable.
//
// Workers hold the full network model (configurations are distributed out
// of band, e.g. a shared network directory) and answer JSON-lines requests
// over TCP:
//
//	-> {"prefix":"10.0.0.0/24","k":3}
//	<- {"prefix":"10.0.0.0/24","summaries":[...],"error":""}
//
// The coordinator fans prefixes out over a worker pool with work stealing
// and a resilience layer: per-request deadlines, re-queue of in-flight
// jobs when a worker connection dies, worker reconnection with
// exponential backoff and jitter, bounded per-prefix retries, hedged
// re-dispatch of stragglers to idle workers, and an AllowPartial mode
// that degrades to a structured failure report instead of an
// all-or-nothing error.
package dist

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/igp"
	"hoyan/internal/netaddr"
	"hoyan/internal/topo"
)

// Request asks a worker to verify one prefix at failure budget K.
type Request struct {
	Prefix string `json:"prefix"`
	K      int    `json:"k"`
	// Session names the sweep session the request belongs to
	// (informational: logs and debugging; empty for anonymous runs).
	Session string `json:"session,omitempty"`
	// Model selects which of the worker's registered models answers the
	// request, by ModelHash. Empty selects the worker's default snapshot.
	// A hash the worker does not hold is a loud per-request error, never
	// a silent fallback — two sessions over one pool must not cross-talk.
	Model string `json:"model,omitempty"`
	// Region restricts the pass to one region of the model's partition
	// (modular verification): the worker runs a region-restricted
	// simulation and answers with that region's verdicts only, holding
	// O(WAN/regions) state instead of the whole model. Empty means
	// monolithic simulation.
	Region string `json:"region,omitempty"`
	// Summary carries the home pass's exported cut summary on import
	// passes (Region set, Summary non-nil); a home pass has Region set
	// and Summary nil and gets the captured summary back in the
	// Response.
	Summary *core.CutSummary `json:"summary,omitempty"`
}

// RouterSummary is one router's verdict for the prefix.
type RouterSummary struct {
	Router string `json:"router"`
	// Reachable with all links up.
	Reachable bool `json:"reachable"`
	// MinFailures breaking reachability; -1 when it survives the budget.
	MinFailures int `json:"min_failures"`
}

// Response carries a worker's result.
type Response struct {
	Prefix    string          `json:"prefix"`
	Summaries []RouterSummary `json:"summaries,omitempty"`
	Error     string          `json:"error,omitempty"`
	// Region echoes the request's region so the coordinator can detect
	// stream desync between two passes of the same prefix.
	Region string `json:"region,omitempty"`
	// Summary is the cut summary captured by a home region pass.
	Summary *core.CutSummary `json:"summary,omitempty"`
	// Refused explains a modular refusal (core.UnsoundCut): the cut
	// cannot express this prefix's behavior, deterministically — the
	// coordinator must fall back to a monolithic pass, not retry.
	Refused string `json:"refused,omitempty"`
}

// DefaultMaxShared is the default cap on resident assembled snapshots
// (core.Shared entries) per worker — the multi-session LRU size.
const DefaultMaxShared = 4

// modelSource holds one registered (topology, snapshot) pair and its
// once-assembled model. Sources are never evicted — only the much larger
// Shared (model + IGP memo) entries are — so a re-admitted session pays
// re-assembly, not re-registration.
type modelSource struct {
	net  *topo.Network
	snap config.Snapshot

	once  sync.Once
	model *core.Model
	err   error

	// Modular state, derived on the first region request. The partition
	// is immutable per model; the cut memos (one per failure budget, a
	// handful in practice) are shared by every region Shared of the model
	// and never evicted — they are what keeps a region's resident IGP
	// state at O(region) instead of O(WAN).
	ptOnce sync.Once
	pt     *core.Partition
	ptErr  error
	cutMu  sync.Mutex
	cuts   map[int]*igp.Memo // by k
}

func (ms *modelSource) assemble() (*core.Model, error) {
	ms.once.Do(func() {
		ms.model, ms.err = core.Assemble(ms.net, ms.snap, behavior.TrueProfiles())
	})
	return ms.model, ms.err
}

// partition derives (once) the model's region partition; an error means
// the model has no usable cut and every region request for it fails
// loudly — the coordinator's monolithic fallback handles it.
func (ms *modelSource) partition() (*core.Partition, error) {
	m, err := ms.assemble()
	if err != nil {
		return nil, err
	}
	ms.ptOnce.Do(func() {
		ms.pt, ms.ptErr = core.NewPartition(m)
	})
	return ms.pt, ms.ptErr
}

// cutMemo returns the model's cross-region IGP memo for one failure
// budget, building it on first use. Callers must have assembled the
// model (partition() does).
func (ms *modelSource) cutMemo(opts core.Options, pt *core.Partition) *igp.Memo {
	ms.cutMu.Lock()
	defer ms.cutMu.Unlock()
	if ms.cuts == nil {
		ms.cuts = map[int]*igp.Memo{}
	}
	if memo := ms.cuts[opts.K]; memo != nil {
		return memo
	}
	memo := core.CutMemo(ms.model, opts, pt)
	ms.cuts[opts.K] = memo
	return memo
}

// sharedKey identifies one resident core.Shared: a model (by ModelHash)
// at one failure budget, either globally (region "") or restricted to
// one region of the model's partition.
type sharedKey struct {
	model  string
	k      int
	region string
}

// sharedEntry is one LRU slot.
type sharedEntry struct {
	sh   *core.Shared
	used int64 // LRU clock tick of the last hit
}

// Worker serves verification requests for one or more network
// snapshots. Each snapshot is registered under its ModelHash; requests
// select one by hash (empty = the default snapshot), so several
// concurrent sweep sessions — possibly from different coordinators —
// share one worker pool with no cross-talk. Per (model, k) the worker
// keeps a core.Shared (immutable model + one-time IGP snapshot) in a
// small LRU capped at MaxShared entries, so interleaved sessions never
// pay per-job re-assembly while memory stays bounded.
type Worker struct {
	// IdleTimeout bounds the wait for the next request on a coordinator
	// connection; zero waits forever. Set before Serve.
	IdleTimeout time.Duration

	// MaxShared caps the resident core.Shared entries (the LRU size);
	// zero means DefaultMaxShared. Set before Serve. Evicting an entry
	// only drops the worker's reference: simulators already built from it
	// on open connections keep working (Shared is immutable), and the
	// next request for that key re-assembles.
	MaxShared int

	sharedMu    sync.Mutex
	sources     map[string]*modelSource // by ModelHash; "" aliases default
	defaultHash string
	shareds     map[sharedKey]*sharedEntry
	clock       int64
	evictions   int

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewWorker builds a worker over a network, registered as the default
// model (selected by requests with an empty model hash) and under its
// ModelHash.
func NewWorker(n *topo.Network, snap config.Snapshot) *Worker {
	w := &Worker{
		conns:   map[net.Conn]struct{}{},
		sources: map[string]*modelSource{},
		shareds: map[sharedKey]*sharedEntry{},
	}
	src := &modelSource{net: n, snap: snap}
	w.defaultHash = ModelHash(n, snap)
	w.sources[""] = src
	w.sources[w.defaultHash] = src
	return w
}

// AddModel registers an additional network snapshot under its ModelHash
// and returns the hash. Coordinators select it by setting
// Options.ModelHash. Safe to call before Serve; concurrent registration
// while serving is also safe.
func (w *Worker) AddModel(n *topo.Network, snap config.Snapshot) string {
	h := ModelHash(n, snap)
	w.sharedMu.Lock()
	defer w.sharedMu.Unlock()
	if _, ok := w.sources[h]; !ok {
		w.sources[h] = &modelSource{net: n, snap: snap}
	}
	return h
}

// Evictions counts Shared entries dropped by the LRU (observability and
// tests).
func (w *Worker) Evictions() int {
	w.sharedMu.Lock()
	defer w.sharedMu.Unlock()
	return w.evictions
}

// Serve accepts coordinator connections until Close.
func (w *Worker) Serve(ln net.Listener) error {
	w.mu.Lock()
	w.ln = ln
	w.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed
			w.mu.Unlock()
			if closed {
				w.wg.Wait()
				return nil
			}
			return err
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			conn.Close()
			continue
		}
		w.conns[conn] = struct{}{}
		w.mu.Unlock()
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			defer func() {
				w.mu.Lock()
				delete(w.conns, conn)
				w.mu.Unlock()
				conn.Close()
			}()
			w.handle(conn)
		}()
	}
}

// Close stops the worker gracefully: no new connections are accepted, and
// open connections stop waiting for further requests (in-flight responses
// still flush).
func (w *Worker) Close() error {
	w.mu.Lock()
	w.closed = true
	ln := w.ln
	for conn := range w.conns {
		// Unblock pending reads; in-flight writes are unaffected.
		conn.SetReadDeadline(time.Now())
	}
	w.mu.Unlock()
	if ln != nil {
		return ln.Close()
	}
	return nil
}

// sharedFor returns the Shared for (model hash, failure budget k,
// region), assembling it on first use and touching its LRU slot. An
// empty region selects the global Shared (pt nil); a named one the
// region's Shared layered over the model's cut memo, so a worker serving
// modular passes holds O(WAN/regions) per region instead of O(WAN).
// Region entries share the global LRU; a worker pool dedicated to a
// modular session should set MaxShared to at least regions+2 to avoid
// thrashing. The returned key is normalized (the empty default alias
// resolves to the default hash) so per-connection simulators keyed by it
// never alias two models.
func (w *Worker) sharedFor(model string, k int, region string) (sh *core.Shared, key sharedKey, pt *core.Partition, ri int, err error) {
	w.sharedMu.Lock()
	src := w.sources[model]
	w.sharedMu.Unlock()
	if src == nil {
		return nil, key, nil, -1, fmt.Errorf("dist: worker does not hold model %q (default is %s)", model, w.defaultHash)
	}
	m, err := src.assemble()
	if err != nil {
		return nil, key, nil, -1, err
	}
	opts := core.DefaultOptions()
	opts.K = k
	if region == "" {
		sh, key = w.cachedShared(sharedKey{model: model, k: k}, func() *core.Shared {
			return core.NewShared(m, opts)
		})
		return sh, key, nil, -1, nil
	}
	if pt, err = src.partition(); err != nil {
		return nil, key, nil, -1, err
	}
	if ri = pt.RegionIndex(region); ri < 0 {
		return nil, key, nil, -1, fmt.Errorf("dist: model %s has no region %q", ModelHash(src.net, src.snap), region)
	}
	cut := src.cutMemo(opts, pt)
	sh, key = w.cachedShared(sharedKey{model: model, k: k, region: region}, func() *core.Shared {
		return core.NewRegionShared(m, opts, pt, ri, cut)
	})
	return sh, key, pt, ri, nil
}

// cachedShared looks key up in the LRU, building the Shared on a miss
// and evicting the stalest entries beyond MaxShared. The returned key is
// normalized to the default hash.
func (w *Worker) cachedShared(key sharedKey, build func() *core.Shared) (*core.Shared, sharedKey) {
	if key.model == "" {
		key.model = w.defaultHash
	}
	w.sharedMu.Lock()
	defer w.sharedMu.Unlock()
	w.clock++
	if e := w.shareds[key]; e != nil {
		e.used = w.clock
		return e.sh, key
	}
	sh := build()
	w.shareds[key] = &sharedEntry{sh: sh, used: w.clock}
	max := w.MaxShared
	if max <= 0 {
		max = DefaultMaxShared
	}
	for len(w.shareds) > max {
		var oldest sharedKey
		var oldestUsed int64
		first := true
		for k2, e2 := range w.shareds {
			if first || e2.used < oldestUsed ||
				(e2.used == oldestUsed && lessKey(k2, oldest)) {
				oldest, oldestUsed, first = k2, e2.used, false
			}
		}
		delete(w.shareds, oldest)
		w.evictions++
	}
	return sh, key
}

// lessKey is the deterministic eviction tie-break across equally-stale
// LRU entries.
func lessKey(a, b sharedKey) bool {
	if a.model != b.model {
		return a.model < b.model
	}
	if a.k != b.k {
		return a.k < b.k
	}
	return a.region < b.region
}

// connSim is one connection's simulator for a sharedKey; it is rebuilt
// when the key's Shared was evicted and re-assembled (the old Shared
// stays valid, but a fresh one must get fresh simulators).
type connSim struct {
	sh  *core.Shared
	sim *core.Simulator
}

// handle processes one coordinator connection: a stream of requests, one
// simulator per (connection, model, k) reused across prefixes for IGP
// warmth.
func (w *Worker) handle(conn net.Conn) {
	dec := json.NewDecoder(bufio.NewReader(conn))
	enc := json.NewEncoder(conn)
	sims := map[sharedKey]*connSim{}
	for {
		if w.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(w.IdleTimeout))
		}
		var req Request
		if err := dec.Decode(&req); err != nil {
			return // connection closed, idle too long, or garbage; drop it
		}
		// A dead connection ends the handler on every path — an encode
		// error must not leave us spinning decoding garbage.
		if err := enc.Encode(w.answer(req, sims)); err != nil {
			return
		}
	}
}

// answer runs one verification request against the model it names. A
// request with a Region is a region pass: a home pass (no imported
// summary) captures the prefix's cut summary into the response, an
// import pass consumes the request's. A core refusal (*core.UnsoundCut)
// answers with Refused, not Error — it is deterministic, so the
// coordinator must fall back to monolithic simulation instead of
// retrying.
func (w *Worker) answer(req Request, sims map[sharedKey]*connSim) Response {
	resp := Response{Prefix: req.Prefix, Region: req.Region}
	p, err := netaddr.Parse(req.Prefix)
	if err != nil {
		resp.Error = err.Error()
		return resp
	}
	sh, key, pt, ri, err := w.sharedFor(req.Model, req.K, req.Region)
	if err != nil {
		resp.Error = err.Error()
		return resp
	}
	sim := connSimFor(sims, key, sh).sim
	var res *core.Result
	if pt == nil {
		res, err = sim.Run(p)
	} else {
		var sum *core.CutSummary
		res, sum, err = sim.RunRegion(p, pt, ri, req.Summary)
		if req.Summary == nil {
			resp.Summary = sum
		}
	}
	var uc *core.UnsoundCut
	if errors.As(err, &uc) {
		resp.Refused = uc.Reason
		return resp
	}
	if err != nil {
		resp.Error = err.Error()
		return resp
	}
	resp.Summaries = summarize(res.Verdicts(nil, p), res.Sim.M, req.K)
	return resp
}

// connSimFor returns the connection's simulator for a sharedKey,
// rebuilding it when the key's Shared was evicted and re-assembled.
func connSimFor(sims map[sharedKey]*connSim, key sharedKey, sh *core.Shared) *connSim {
	cs := sims[key]
	if cs == nil || cs.sh != sh {
		cs = &connSim{sh: sh, sim: sh.NewSimulator()}
		sims[key] = cs
	}
	return cs
}

// summarize maps a pass's verdicts onto the wire, clamping a
// min-failure count beyond the budget to -1.
func summarize(vs []core.Verdict, model *core.Model, k int) []RouterSummary {
	out := make([]RouterSummary, len(vs))
	for i, v := range vs {
		out[i] = RouterSummary{Router: model.Net.Node(v.Node).Name, Reachable: v.Reachable, MinFailures: v.Min}
		if v.Min > k {
			out[i].MinFailures = -1
		}
	}
	return out
}

// Options tunes the coordinator's resilience policy. The zero value of
// every field selects the default from DefaultOptions.
type Options struct {
	// DialTimeout bounds each connection attempt.
	DialTimeout time.Duration
	// RequestTimeout bounds one request round-trip (encode + simulate +
	// decode); a timed-out connection is considered dead and its job is
	// re-queued.
	RequestTimeout time.Duration
	// MaxAttempts caps application-level retries per prefix (a worker
	// answered with an error). Connection-level re-queues do not count:
	// they are bounded by MaxConnFailures per worker instead.
	MaxAttempts int
	// MaxConnFailures is the number of consecutive connection-level
	// failures (failed dials, dead connections, timeouts) after which a
	// worker is abandoned. A completed request resets the count.
	MaxConnFailures int
	// BackoffBase and BackoffMax shape the exponential backoff (with
	// jitter in [d/2, d]) between connection attempts.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// HedgeAfter re-dispatches an in-flight prefix to an idle worker
	// once it has been outstanding this long (straggler hedging); the
	// first result wins. Zero disables hedging.
	HedgeAfter time.Duration
	// AllowPartial degrades gracefully: Run returns the completed subset
	// plus a structured report of failed prefixes and worker errors
	// instead of an all-or-nothing error.
	AllowPartial bool
	// Seed drives backoff jitter; zero is treated as 1 for determinism.
	Seed int64
	// Session names the sweep session on every request (informational).
	Session string
	// ModelHash selects which worker-side model answers this
	// coordinator's requests (see Worker.AddModel); empty selects each
	// worker's default snapshot.
	ModelHash string
}

// DefaultOptions returns the production defaults.
func DefaultOptions() Options {
	return Options{
		DialTimeout:     2 * time.Second,
		RequestTimeout:  30 * time.Second,
		MaxAttempts:     3,
		MaxConnFailures: 3,
		BackoffBase:     50 * time.Millisecond,
		BackoffMax:      2 * time.Second,
	}
}

// withDefaults fills zero fields from DefaultOptions.
func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.DialTimeout == 0 {
		o.DialTimeout = d.DialTimeout
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = d.RequestTimeout
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = d.MaxAttempts
	}
	if o.MaxConnFailures == 0 {
		o.MaxConnFailures = d.MaxConnFailures
	}
	if o.BackoffBase == 0 {
		o.BackoffBase = d.BackoffBase
	}
	if o.BackoffMax == 0 {
		o.BackoffMax = d.BackoffMax
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// backoff returns the jittered delay before attempt n (1-based).
func (o Options) backoff(rng *rand.Rand, n int) time.Duration {
	d := o.BackoffBase
	for i := 1; i < n; i++ {
		d *= 2
		if d >= o.BackoffMax {
			d = o.BackoffMax
			break
		}
	}
	if d <= 0 {
		return 0
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// Coordinator fans work out over remote workers.
type Coordinator struct {
	Addrs []string
	// Opts tunes resilience; the zero value means DefaultOptions.
	Opts Options
}

// PrefixFailure reports one prefix that never completed.
type PrefixFailure struct {
	Prefix string
	// Dispatches counts how many times the prefix was handed to a
	// worker (including re-queues and hedges).
	Dispatches int
	LastError  string
}

// Result aggregates the distributed run.
type Result struct {
	// ByPrefix maps prefix to per-router summaries.
	ByPrefix map[string][]RouterSummary
	// Assigned counts prefixes completed per worker address.
	Assigned map[string]int
	// Failed reports prefixes that never completed, sorted by prefix.
	// Empty on a fully successful run.
	Failed []PrefixFailure
	// WorkerErrors logs connection and request failures per worker
	// address — the structured report of AllowPartial mode.
	WorkerErrors map[string][]string
	// Requeued counts jobs re-queued because a worker connection died
	// with the job in flight.
	Requeued int
	// Retried counts application-level retries (a worker answered with
	// an error and the prefix was re-dispatched).
	Retried int
	// Hedged counts speculative duplicate dispatches of stragglers.
	Hedged int
	// Classes counts the representative simulations RunClasses dispatched
	// (zero for a plain Run).
	Classes int
	// Replicated counts member prefixes whose summaries were copied from
	// their class representative instead of simulated (RunClasses).
	Replicated int
	// Resumed counts classes replayed from a session journal without
	// touching a worker (RunSession on a resumed session).
	Resumed int
	// Redispatched counts classes that were in flight — dispatched but
	// unfinished — at a coordinator crash and were re-queued by
	// RunSession, the coordinator-death analogue of Requeued.
	Redispatched int
	// ModularPasses counts region-restricted passes RunModular dispatched
	// (home + import); zero for every other entry point.
	ModularPasses int
	// ModularRefused counts class representatives RunModular fell back to
	// monolithic passes for: the caller supplied no home region, or a
	// worker refused the cut (core.UnsoundCut). Loud in the result, like
	// ModularStats.Refused in the in-process sweep.
	ModularRefused int

	// cutSummaries and refusals record, by job key, the home-pass cut
	// summaries and worker refusals of one runJobs round — RunModular's
	// orchestration state, never exposed.
	cutSummaries map[string]*core.CutSummary
	refusals     map[string]string
}

// events from workers to the scheduler.
type evKind int

const (
	evDone    evKind = iota
	evFail           // application-level error from the worker
	evRequeue        // connection died with the job in flight
	evDead           // worker abandoned
)

type event struct {
	kind      evKind
	addr      string
	job       *job
	summaries []RouterSummary
	cut       *core.CutSummary
	refused   string
	err       error
}

type job struct {
	prefix string
	// region makes this a modular region pass (RunModular); empty is a
	// monolithic pass. summary is the imported cut summary of an import
	// pass (home passes carry region only).
	region  string
	summary *core.CutSummary
	hedge   bool
}

// key is the scheduler's settle key: modular passes of one prefix in
// different regions are independent jobs.
func (j *job) key() string {
	if j.region == "" {
		return j.prefix
	}
	return j.prefix + "@" + j.region
}

// clone returns a fresh dispatch copy (hedge flag cleared).
func (j *job) clone() *job {
	return &job{prefix: j.prefix, region: j.region, summary: j.summary}
}

// flight tracks one in-flight job.
type flight struct {
	since  time.Time
	copies int
	j      *job
}

// runHooks lets a Session observe the scheduler: dispatched fires when a
// prefix is handed to a worker, done fires with the completed report
// before the scheduler settles the prefix. A non-nil error from done
// aborts the run (the crash-injection path): the scheduler stops
// dispatching, leaves unfinished prefixes unsettled (they are a crash,
// not a failure), and returns the partial Result with that error.
type runHooks struct {
	dispatched func(prefix string)
	done       func(prefix string, summaries []RouterSummary) error
}

// Run verifies the prefixes at budget k across the workers with work
// stealing, re-queueing jobs lost to dead workers and retrying failures
// under the coordinator's Options. Without AllowPartial any failed prefix
// is an error (the partial Result is still returned); with AllowPartial
// the Result carries the completed subset plus Failed/WorkerErrors.
func (c *Coordinator) Run(prefixes []string, k int) (*Result, error) {
	return c.run(prefixes, k, nil)
}

func (c *Coordinator) run(prefixes []string, k int, hooks *runHooks) (*Result, error) {
	jobs := make([]*job, 0, len(prefixes))
	for _, p := range prefixes {
		jobs = append(jobs, &job{prefix: p})
	}
	return c.runJobs(jobs, k, hooks)
}

// runJobs is the scheduler underneath every entry point: it fans the
// jobs (monolithic prefixes or modular region passes, deduplicated by
// settle key) out over the worker pool. All per-job state — in-flight
// table, retries, failures, results — is keyed by job.key().
func (c *Coordinator) runJobs(jobs []*job, k int, hooks *runHooks) (*Result, error) {
	opts := c.Opts.withDefaults()
	if len(c.Addrs) == 0 {
		return nil, fmt.Errorf("dist: no workers")
	}
	uniq := dedupJobs(jobs)
	out := &Result{
		ByPrefix:     map[string][]RouterSummary{},
		Assigned:     map[string]int{},
		WorkerErrors: map[string][]string{},
		cutSummaries: map[string]*core.CutSummary{},
		refusals:     map[string]string{},
	}
	if len(uniq) == 0 {
		return out, nil
	}

	handout := make(chan *job)
	events := make(chan event, len(c.Addrs)*2)
	stop := make(chan struct{})

	// Live connections, closed on exit so workers blocked mid-request
	// (e.g. on a blackholed read) unwind promptly.
	var connMu sync.Mutex
	liveConns := map[net.Conn]struct{}{}
	register := func(conn net.Conn) {
		connMu.Lock()
		liveConns[conn] = struct{}{}
		connMu.Unlock()
	}
	unregister := func(conn net.Conn) {
		connMu.Lock()
		delete(liveConns, conn)
		connMu.Unlock()
	}

	var wg sync.WaitGroup
	for i, addr := range c.Addrs {
		wg.Add(1)
		rng := rand.New(rand.NewSource(opts.Seed + int64(i)))
		go runWorkerLoop(&wg, addr, k, opts, rng, handout, events, stop, register, unregister)
	}

	// Scheduler: owns the ready queue, in-flight table, and completion
	// accounting. Single goroutine, so no locks on the Result.
	ready := make([]*job, 0, len(uniq))
	for _, j := range uniq {
		ready = append(ready, j.clone())
	}
	inflight := map[string]*flight{}
	settled := map[string]bool{} // completed or permanently failed
	dispatches := map[string]int{}
	attempts := map[string]int{} // application-level failures per job key
	remaining := len(uniq)
	live := len(c.Addrs)
	lastErr := map[string]string{}
	var abortErr error // set by a failing done hook; stops the run

	fail := func(key, why string) {
		settled[key] = true
		remaining--
		delete(inflight, key)
		out.Failed = append(out.Failed, PrefixFailure{Prefix: key, Dispatches: dispatches[key], LastError: why})
	}
	// requeue puts a job back on the ready queue unless another copy is
	// still in flight; it reports whether the job was re-queued.
	requeue := func(j *job, err error) bool {
		key := j.key()
		f := inflight[key]
		if f != nil {
			f.copies--
		}
		if settled[key] {
			if f != nil && f.copies <= 0 {
				delete(inflight, key)
			}
			return false
		}
		lastErr[key] = err.Error()
		if f != nil && f.copies > 0 {
			return false // a hedge copy is still running
		}
		delete(inflight, key)
		ready = append(ready, j.clone())
		return true
	}

	for remaining > 0 && live > 0 && abortErr == nil {
		var (
			send       chan *job
			next       *job
			timer      <-chan time.Time
			hedgeTimer *time.Timer
		)
		if len(ready) > 0 {
			send, next = handout, ready[0]
		} else if opts.HedgeAfter > 0 {
			// Oldest unsettled single-copy straggler; equal ages tie-break
			// on job key so hedge choice never follows map iteration order.
			var hp string
			var hf *flight
			for key, f := range inflight {
				if f.copies != 1 || settled[key] {
					continue
				}
				if hf == nil || f.since.Before(hf.since) || (f.since.Equal(hf.since) && key < hp) {
					hp, hf = key, f
				}
			}
			if hf != nil {
				if age := time.Since(hf.since); age >= opts.HedgeAfter {
					next = hf.j.clone()
					next.hedge = true
					send = handout
				} else {
					hedgeTimer = time.NewTimer(opts.HedgeAfter - age)
					timer = hedgeTimer.C
				}
			}
		}
		select {
		case send <- next:
			key := next.key()
			dispatches[key]++
			if hooks != nil && hooks.dispatched != nil && !next.hedge {
				hooks.dispatched(key)
			}
			if next.hedge {
				inflight[key].copies++
				out.Hedged++
			} else {
				ready = ready[1:]
				if f := inflight[key]; f != nil {
					f.copies++
				} else {
					inflight[key] = &flight{since: time.Now(), copies: 1, j: next}
				}
			}
		case ev := <-events:
			switch ev.kind {
			case evDone:
				key := ev.job.key()
				if f := inflight[key]; f != nil {
					f.copies--
					if f.copies <= 0 {
						delete(inflight, key)
					}
				}
				if settled[key] {
					break // a hedge copy already won
				}
				if hooks != nil && hooks.done != nil {
					if err := hooks.done(key, ev.summaries); err != nil {
						// The journal refused the completion (crash
						// injection or a write failure): stop without
						// settling, so the prefix is neither reported
						// done nor counted failed.
						abortErr = err
						break
					}
				}
				settled[key] = true
				remaining--
				delete(inflight, key)
				if ev.refused != "" {
					// A modular refusal is a completed answer ("this cut
					// cannot express the prefix"), never retried; the
					// caller falls back to a monolithic pass.
					out.refusals[key] = ev.refused
				} else {
					out.ByPrefix[key] = ev.summaries
					if ev.cut != nil {
						out.cutSummaries[key] = ev.cut
					}
				}
				out.Assigned[ev.addr]++
			case evFail:
				key := ev.job.key()
				out.WorkerErrors[ev.addr] = append(out.WorkerErrors[ev.addr],
					fmt.Sprintf("%s: %v", key, ev.err))
				if f := inflight[key]; f != nil {
					f.copies--
					if f.copies <= 0 {
						delete(inflight, key)
					}
				}
				if settled[key] {
					break
				}
				lastErr[key] = ev.err.Error()
				attempts[key]++
				if attempts[key] >= opts.MaxAttempts {
					fail(key, ev.err.Error())
					break
				}
				if f := inflight[key]; f == nil || f.copies <= 0 {
					delete(inflight, key)
					ready = append(ready, ev.job.clone())
					out.Retried++
				}
			case evRequeue:
				out.WorkerErrors[ev.addr] = append(out.WorkerErrors[ev.addr],
					fmt.Sprintf("%s: %v", ev.job.key(), ev.err))
				if requeue(ev.job, ev.err) {
					out.Requeued++
				}
			case evDead:
				live--
				out.WorkerErrors[ev.addr] = append(out.WorkerErrors[ev.addr],
					fmt.Sprintf("worker abandoned: %v", ev.err))
			}
		case <-timer:
		}
		if hedgeTimer != nil {
			hedgeTimer.Stop()
		}
	}

	// Unwind the pool: stop signals, then force-close any connection a
	// worker is still blocked on (e.g. waiting out a straggler).
	close(stop)
	connMu.Lock()
	for conn := range liveConns {
		conn.Close()
	}
	connMu.Unlock()
	wg.Wait()

	// An aborted run is a crash, not a failure: unsettled prefixes stay
	// out of Failed — the journal already holds everything needed to
	// resume them.
	if abortErr != nil {
		return out, abortErr
	}

	// Whatever never settled (the pool died first) is a failure.
	for _, j := range uniq {
		if key := j.key(); !settled[key] {
			why := lastErr[key]
			if why == "" {
				why = "no live workers"
			}
			fail(key, why)
		}
	}
	sort.Slice(out.Failed, func(i, j int) bool { return out.Failed[i].Prefix < out.Failed[j].Prefix })

	if len(out.Failed) == 0 || opts.AllowPartial {
		return out, nil
	}
	f := out.Failed[0]
	return out, fmt.Errorf("dist: %d/%d prefixes failed (first: %s after %d dispatches: %s)",
		len(out.Failed), len(uniq), f.Prefix, f.Dispatches, f.LastError)
}

// classParts splits a class partition into its dispatch order (reps, in
// input order), the rep -> full member list map, and the total prefix
// count. Empty classes and duplicate representatives are dropped.
func classParts(classes [][]string) (reps []string, members map[string][]string, total int) {
	reps = make([]string, 0, len(classes))
	members = map[string][]string{}
	for _, cl := range classes {
		if len(cl) == 0 {
			continue
		}
		rep := cl[0]
		if _, dup := members[rep]; dup {
			continue
		}
		reps = append(reps, rep)
		members[rep] = cl
		total += len(cl)
	}
	return reps, members, total
}

// expandClasses replicates per-representative results to class members —
// the RouterSummary carries no prefix, so replication is exact — and
// expands representative failures to every member, rewriting the summary
// error to member counts.
func expandClasses(res *Result, reps []string, members map[string][]string, runErr error) (*Result, error) {
	total := 0
	for _, rep := range reps {
		cl := members[rep]
		total += len(cl)
		if summ, ok := res.ByPrefix[rep]; ok {
			for _, p := range cl[1:] {
				res.ByPrefix[p] = summ
				res.Replicated++
			}
		}
	}
	if len(res.Failed) > 0 {
		expanded := make([]PrefixFailure, 0, len(res.Failed))
		for _, f := range res.Failed {
			for _, p := range members[f.Prefix] {
				mf := f
				mf.Prefix = p
				expanded = append(expanded, mf)
			}
		}
		sort.Slice(expanded, func(i, j int) bool { return expanded[i].Prefix < expanded[j].Prefix })
		res.Failed = expanded
		if runErr != nil {
			f := expanded[0]
			runErr = fmt.Errorf("dist: %d/%d prefixes failed (first: %s after %d dispatches: %s)",
				len(expanded), total, f.Prefix, f.Dispatches, f.LastError)
		}
	}
	return res, runErr
}

// RunClasses verifies prefix behavior classes: each class is a member
// list with the representative first (core.Model.Classes provides the
// partition), only representatives are dispatched to workers, and a
// representative's summaries are replicated to every member — the
// RouterSummary carries no prefix, so replication is exact. A
// representative that permanently fails fails all of its members.
func (c *Coordinator) RunClasses(classes [][]string, k int) (*Result, error) {
	reps, members, _ := classParts(classes)
	res, runErr := c.Run(reps, k)
	if res == nil {
		return nil, runErr
	}
	res.Classes = len(reps)
	return expandClasses(res, reps, members, runErr)
}

// ModularClass is one prefix behavior class for RunModular: the member
// prefixes with the representative first (core.Model.Classes order), and
// the name of the region originating the class's family
// (core.Partition.FamilyHome). An empty Home marks a class the caller
// already refused — origins spanning regions, say — and is dispatched as
// one monolithic pass instead.
type ModularClass struct {
	Members []string
	Home    string
}

// RunModular verifies prefix behavior classes region by region: each
// representative runs as one home pass in its family's region plus one
// import pass per other region, stitched through the home pass's cut
// summary, so a worker serving the sweep holds per-region state instead
// of the whole WAN (its MaxShared should be at least regions+2). Workers
// that refuse a cut (core.UnsoundCut — oscillation damping, re-export
// across a second cut) demote their representative to a monolithic
// pass, counted loudly in ModularRefused; refusal is deterministic, so
// it is a verdict about the cut, never retried. The rounds are
// core.RunModular's schedule, each dispatched as one runJobs pool run.
//
// Per-router summaries are returned sorted by router name — region
// passes answer in region order, so the monolithic node order cannot be
// reconstructed without the model.
func (c *Coordinator) RunModular(classes []ModularClass, regions []string, k int) (*Result, error) {
	var stringClasses [][]string
	homeOf := map[string]string{}
	for _, cl := range classes {
		stringClasses = append(stringClasses, cl.Members)
		if len(cl.Members) > 0 {
			if _, ok := homeOf[cl.Members[0]]; !ok {
				homeOf[cl.Members[0]] = cl.Home
			}
		}
	}
	reps, members, _ := classParts(stringClasses)
	homes := make([]int, len(reps))
	for u, rep := range reps {
		homes[u] = slices.Index(regions, homeOf[rep])
	}

	final := &Result{
		ByPrefix:     map[string][]RouterSummary{},
		Assigned:     map[string]int{},
		WorkerErrors: map[string][]string{},
		Classes:      len(reps),
	}
	// failed holds each representative's first pass failure; the
	// schedule drops the representative from later rounds.
	failed := map[string]PrefixFailure{}
	exec := func(round []core.ModularPass) ([]core.PassResult[RouterSummary], error) {
		jobs := make([]*job, len(round))
		for i, p := range round {
			jobs[i] = &job{prefix: reps[p.Unit], summary: p.Summary}
			if p.Region >= 0 {
				jobs[i].region = regions[p.Region]
			}
		}
		res, err := c.runJobs(jobs, k, nil)
		if res == nil {
			return nil, err
		}
		final.absorb(res)
		failures := map[string]PrefixFailure{}
		for _, f := range res.Failed {
			failures[f.Prefix] = f
		}
		out := make([]core.PassResult[RouterSummary], len(jobs))
		for i, j := range jobs {
			key := j.key()
			if f, bad := failures[key]; bad {
				out[i].Failed = true
				if _, dup := failed[j.prefix]; !dup {
					f.Prefix = j.prefix
					failed[j.prefix] = f
				}
				continue
			}
			out[i] = core.PassResult[RouterSummary]{Verdicts: res.ByPrefix[key], Summary: res.cutSummaries[key], Refused: res.refusals[key]}
		}
		return out, nil
	}
	run, err := core.RunModular(homes, len(regions), exec)
	if err != nil {
		return nil, err
	}
	final.ModularPasses, final.ModularRefused = run.Passes, run.Refused
	for u, rep := range reps {
		if f, bad := failed[rep]; bad {
			final.Failed = append(final.Failed, f)
			continue
		}
		final.ByPrefix[rep] = sortedByRouter(run.Verdicts[u])
	}
	sort.Slice(final.Failed, func(i, j int) bool { return final.Failed[i].Prefix < final.Failed[j].Prefix })
	var runErr error
	if len(final.Failed) > 0 && !c.Opts.withDefaults().AllowPartial {
		runErr = fmt.Errorf("dist: modular run failed") // expandClasses rewrites with member counts
	}
	return expandClasses(final, reps, members, runErr)
}

// absorb merges one round's pool accounting into the aggregate result.
func (r *Result) absorb(o *Result) {
	for a, n := range o.Assigned {
		r.Assigned[a] += n
	}
	for a, es := range o.WorkerErrors {
		r.WorkerErrors[a] = append(r.WorkerErrors[a], es...)
	}
	r.Requeued += o.Requeued
	r.Retried += o.Retried
	r.Hedged += o.Hedged
}

// sortedByRouter returns the summaries ordered by router name.
func sortedByRouter(s []RouterSummary) []RouterSummary {
	out := append([]RouterSummary(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i].Router < out[j].Router })
	return out
}

// runWorkerLoop drives one worker address: dial (with backoff), pull
// jobs, and convert connection deaths into re-queues. It abandons the
// worker after MaxConnFailures consecutive connection-level failures.
func runWorkerLoop(wg *sync.WaitGroup, addr string, k int, opts Options, rng *rand.Rand,
	handout <-chan *job, events chan<- event, stop <-chan struct{},
	register, unregister func(net.Conn)) {
	defer wg.Done()

	var conn net.Conn
	var enc *json.Encoder
	var dec *json.Decoder
	failures := 0 // consecutive connection-level failures

	send := func(ev event) {
		ev.addr = addr
		select {
		case events <- ev:
		case <-stop:
		}
	}
	disconnect := func() {
		if conn != nil {
			unregister(conn)
			conn.Close()
			conn = nil
		}
	}
	defer disconnect()

	// connect dials with backoff until it succeeds or the failure budget
	// is spent; false means the worker is done (dead or stopped).
	connect := func() bool {
		for {
			select {
			case <-stop:
				return false
			default:
			}
			c, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
			if err == nil {
				conn = c
				register(c)
				enc = json.NewEncoder(c)
				dec = json.NewDecoder(bufio.NewReader(c))
				return true
			}
			failures++
			if failures >= opts.MaxConnFailures {
				send(event{kind: evDead, err: err})
				return false
			}
			t := time.NewTimer(opts.backoff(rng, failures))
			select {
			case <-t.C:
			case <-stop:
				t.Stop()
				return false
			}
		}
	}

	if !connect() {
		return
	}
	for {
		var j *job
		select {
		case <-stop:
			return
		case j = <-handout:
		}

		resp, appErr, connErr := doRequest(conn, enc, dec, j, k, opts)
		if connErr != nil {
			// The connection died with the job in hand: give the job
			// back, then reconnect (with backoff) or give up.
			disconnect()
			send(event{kind: evRequeue, job: j, err: connErr})
			failures++
			if failures >= opts.MaxConnFailures {
				send(event{kind: evDead, err: connErr})
				return
			}
			t := time.NewTimer(opts.backoff(rng, failures))
			select {
			case <-t.C:
			case <-stop:
				t.Stop()
				return
			}
			if !connect() {
				return
			}
			continue
		}
		failures = 0
		if appErr != nil {
			send(event{kind: evFail, job: j, err: appErr})
			continue
		}
		send(event{kind: evDone, job: j, summaries: resp.Summaries, cut: resp.Summary, refused: resp.Refused})
	}
}

// doRequest performs one request round-trip under the request deadline.
// connErr non-nil means the connection is unusable (the stream may be
// desynchronized); appErr non-nil means the worker answered with an
// error and the connection is still good.
func doRequest(conn net.Conn, enc *json.Encoder, dec *json.Decoder, j *job, k int, opts Options) (resp Response, appErr, connErr error) {
	if opts.RequestTimeout > 0 {
		conn.SetDeadline(time.Now().Add(opts.RequestTimeout))
	}
	if err := enc.Encode(Request{Prefix: j.prefix, K: k, Session: opts.Session, Model: opts.ModelHash,
		Region: j.region, Summary: j.summary}); err != nil {
		return resp, nil, err
	}
	if err := dec.Decode(&resp); err != nil {
		return resp, nil, err
	}
	if resp.Prefix != j.prefix || resp.Region != j.region {
		// Stream desync (e.g. a late answer to a timed-out request):
		// the connection can no longer be trusted.
		return resp, nil, fmt.Errorf("response for %q@%q to request for %q@%q",
			resp.Prefix, resp.Region, j.prefix, j.region)
	}
	if resp.Error != "" {
		return resp, fmt.Errorf("%s", resp.Error), nil
	}
	return resp, nil, nil
}

// dedupJobs drops jobs whose settle key repeats, keeping input order.
func dedupJobs(jobs []*job) []*job {
	seen := map[string]bool{}
	var out []*job
	for _, j := range jobs {
		if key := j.key(); !seen[key] {
			seen[key] = true
			out = append(out, j)
		}
	}
	return out
}
