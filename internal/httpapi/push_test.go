package httpapi

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/logic"
)

// TestQueryMatchesSimulationAfterPushes extends TestQueryMatchesSimulation
// across config pushes: on gen.Small, a seeded gen.Perturb series goes
// through POST /v1/resweep one step at a time (topology steps skipped,
// the endpoint takes config updates only), and after each push every
// reach query under sampled failure sets and every min-failures query
// on the active snapshot must equal a fresh simulation of the pushed
// model. Each push publishes from the previous active snapshot, so this
// pins the incremental compile end to end; the listing must show it
// reused at least the classes the sweep replayed.
func TestQueryMatchesSimulationAfterPushes(t *testing.T) {
	const k = 2
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(w.Net, w.Snap, k)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resweep(t, srv)

	links := w.Net.Links()
	rng := rand.New(rand.NewSource(11))
	failureSets := [][]string{nil}
	for i := 0; i < 4; i++ {
		var names []string
		for j := 0; j < 1+rng.Intn(k); j++ {
			l := links[rng.Intn(len(links))]
			names = append(names, w.Net.Node(l.A).Name+"~"+w.Net.Node(l.B).Name)
		}
		failureSets = append(failureSets, names)
	}

	cur := w.Snap
	pushes, reusedAny := 0, false
	for _, step := range gen.Perturb(w, 1, 5) {
		if step.Kind == "link" {
			continue
		}
		pushes++
		up := ResweepUpdate{Device: step.Device, Lines: step.Lines}
		body, err := json.Marshal(ResweepRequest{Updates: []ResweepUpdate{up}})
		if err != nil {
			t.Fatal(err)
		}
		var resp ResweepResponse
		if code := post(t, srv, "/v1/resweep", string(body), &resp); code != 200 || resp.Snapshot == "" {
			t.Fatalf("%s: status %d, snapshot %q (%s)", step.Description, code, resp.Snapshot, resp.SnapshotError)
		}
		if cur, err = cur.Apply([]config.Update{{Device: up.Device, Lines: up.Lines}}); err != nil {
			t.Fatal(err)
		}

		var list struct {
			Snapshots []SnapshotInfo `json:"snapshots"`
		}
		get(t, srv, "/v1/snapshots", &list)
		var active *SnapshotInfo
		for i := range list.Snapshots {
			if list.Snapshots[i].Active {
				active = &list.Snapshots[i]
			}
		}
		if active == nil || active.ID != resp.Snapshot {
			t.Fatalf("%s: pushed snapshot %s is not the active one: %+v", step.Description, resp.Snapshot, list.Snapshots)
		}
		if active.ReusedClasses < resp.Replayed {
			t.Fatalf("%s: reused %d classes, sweep replayed %d", step.Description, active.ReusedClasses, resp.Replayed)
		}
		reusedAny = reusedAny || active.ReusedClasses > 0

		m, err := core.Assemble(w.Net, cur, behavior.TrueProfiles())
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.K = k
		sim := core.NewSimulator(m, opts)
		var speakers []string
		for _, n := range w.Net.Nodes() {
			if m.Configs[n.ID].BGP != nil {
				speakers = append(speakers, n.Name)
			}
		}
		for _, cls := range m.Classes() {
			res, err := sim.Run(cls.Rep)
			if err != nil {
				t.Fatal(err)
			}
			pt := core.AnyRouteTo(cls.Rep)
			wantAgg := logic.Unfailable
			for _, router := range speakers {
				node, _ := w.Net.NodeByName(router)
				cond := res.ReachCond(node.ID, pt)
				wantMin := 0
				if sim.F.Eval(cond, nil) {
					wantMin = sim.F.MinFailuresToViolate(cond)
					wantAgg = min(wantAgg, wantMin)
					if wantMin > k {
						wantMin = -1
					}
				}
				for _, member := range cls.Members {
					prefix := member.String()
					for _, names := range failureSets {
						asn := logic.Assignment{}
						for _, name := range names {
							a, b, _ := strings.Cut(name, "~")
							for _, l := range links {
								if la, lb := w.Net.Node(l.A).Name, w.Net.Node(l.B).Name; la == a && lb == b {
									asn[logic.Var(l.ID)] = false
								}
							}
						}
						q := url.Values{"kind": {"reach"}, "prefix": {prefix}, "router": {router}}
						if len(names) > 0 {
							q.Set("failed", strings.Join(names, ","))
						}
						var got QueryResponse
						if code := get(t, srv, "/v1/query?"+q.Encode(), &got); code != 200 {
							t.Fatalf("%s: reach query %v: status %d", step.Description, q, code)
						}
						if want := sim.F.Eval(cond, asn); got.Reachable == nil || *got.Reachable != want {
							t.Fatalf("%s: reach(%s@%s, failed=%v): query=%v sim=%v", step.Description, prefix, router, names, got.Reachable, want)
						}
					}
					var got QueryResponse
					q := url.Values{"kind": {"minfail"}, "prefix": {prefix}, "router": {router}}
					if code := get(t, srv, "/v1/query?"+q.Encode(), &got); code != 200 {
						t.Fatalf("%s: minfail query %v: status %d", step.Description, q, code)
					}
					if got.MinFailures == nil || *got.MinFailures != wantMin {
						t.Fatalf("%s: minfail(%s@%s): query=%v sim=%d", step.Description, prefix, router, got.MinFailures, wantMin)
					}
				}
			}
			if wantAgg > k {
				wantAgg = -1
			}
			for _, member := range cls.Members {
				var got QueryResponse
				if code := get(t, srv, "/v1/query?kind=minfail&prefix="+url.QueryEscape(member.String()), &got); code != 200 {
					t.Fatalf("%s: aggregate minfail: status %d", step.Description, code)
				}
				if got.MinFailures == nil || *got.MinFailures != wantAgg {
					t.Fatalf("%s: minfail(%s): query=%v sim=%d", step.Description, member, got.MinFailures, wantAgg)
				}
			}
		}
	}
	if pushes < 3 {
		t.Fatalf("only %d config pushes in the series", pushes)
	}
	if !reusedAny {
		t.Fatal("no push reused a compiled class")
	}
}

// TestConcurrentPublishSharesClasses republishes the held baseline from
// several goroutines while others query: every publish compiles from
// whichever snapshot is active at that moment, so each must reuse every
// class and share the first snapshot's compiled classes, and queries
// served from any of them must keep answering. Run under -race, this
// pins that a shared compiled class is only ever read.
func TestConcurrentPublishSharesClasses(t *testing.T) {
	svc := service(t)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	resweep(t, srv)
	svc.mu.Lock()
	st := svc.baseline
	svc.mu.Unlock()
	first := svc.query.active.Load().snap

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			e, err := svc.query.publish(st, true)
			if err != nil {
				errs <- err
				return
			}
			if e.snap.Stats.Reused != e.snap.Stats.Classes {
				errs <- fmt.Errorf("republish reused %d of %d classes", e.snap.Stats.Reused, e.snap.Stats.Classes)
			}
			for ci, c := range e.snap.Classes {
				if c != first.Classes[ci] {
					errs <- fmt.Errorf("class %d recompiled on republish", ci)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				resp, err := http.Get(srv.URL + "/v1/query?kind=reach&prefix=10.0.0.0/8&router=D&failed=A~B")
				if err != nil {
					errs <- err
					return
				}
				var q QueryResponse
				err = json.NewDecoder(resp.Body).Decode(&q)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 || q.Reachable == nil || !*q.Reachable {
					errs <- fmt.Errorf("query during publishes: status %d, %+v, %v", resp.StatusCode, q, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
