package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"hoyan/internal/httpapi"
)

// resweepReply is the parsed answer to POST /v1/resweep.
type resweepReply struct {
	status int
	body   httpapi.ResweepResponse
}

// service is an httpapi.Service behind a loopback listener, holding a
// cold baseline published to the query plane.
type service struct {
	in   *wanInputs
	svc  *httpapi.Service
	h    http.Handler // svc.Handler(), built once
	srv  *http.Server
	done chan error
	base string // http://addr
	// active is the snapshot id the last resweep activated.
	active string
}

func startService(in *wanInputs, threads int) (*service, error) {
	svc, err := httpapi.New(in.w.Net, in.w.Snap, k)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := svc.Handler()
	s := &service{in: in, svc: svc, h: h, done: make(chan error, 1),
		srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String()}
	go func() { s.done <- s.srv.Serve(ln) }()
	c := newClient(1)
	defer c.CloseIdleConnections()
	r, err := s.resweep(c, httpapi.ResweepRequest{Workers: threads})
	if err == nil && (r.status != http.StatusOK || r.body.Snapshot == "") {
		err = fmt.Errorf("status %d, snapshot %q, snapshot_error %q", r.status, r.body.Snapshot, r.body.SnapshotError)
	}
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("cold baseline resweep: %w", err)
	}
	s.active = r.body.Snapshot
	return s, nil
}

// stop closes the listener and every connection and waits for Serve.
func (s *service) stop() {
	s.srv.Close()
	<-s.done
}

// newClient is an HTTP client holding at most conns keep-alive
// connections to the service.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

func (s *service) resweep(c *http.Client, req httpapi.ResweepRequest) (resweepReply, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return resweepReply{}, err
	}
	resp, err := c.Post(s.base+"/v1/resweep", "application/json", bytes.NewReader(b))
	if err != nil {
		return resweepReply{}, err
	}
	defer resp.Body.Close()
	r := resweepReply{status: resp.StatusCode}
	if err := json.NewDecoder(resp.Body).Decode(&r.body); err != nil {
		return r, fmt.Errorf("decode resweep reply: %w", err)
	}
	return r, nil
}

// get sends one query over the client's connection and decodes the reply.
func (s *service) get(c *http.Client, path string, out *httpapi.QueryResponse) (int, error) {
	resp, err := c.Get(s.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// serveLocal answers one GET through the handler with a recorder and no
// socket.
func (s *service) serveLocal(path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// openLoop sends queries at a fixed rate over one connection until stop
// is closed. Each query is timed from when it was due, so a stall also
// charges the queries queued behind it; late records how far behind
// schedule each send started.
type openLoop struct {
	due       []time.Time
	lat, late []float64 // ms
	attempted int
	failed    int
	firstErr  string
}

func runOpenLoop(s *service, deck []query, rate int, stop <-chan struct{}) *openLoop {
	c := newClient(1)
	defer c.CloseIdleConnections()
	ol := &openLoop{}
	period := time.Second / time.Duration(rate)
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return ol
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return ol
			default:
			}
		}
		sent := time.Now()
		q := &deck[i%len(deck)]
		var r httpapi.QueryResponse
		code, err := s.get(c, q.path, &r)
		ol.attempted++
		ol.due = append(ol.due, due)
		ol.lat = append(ol.lat, ms(time.Since(due)))
		ol.late = append(ol.late, ms(sent.Sub(due)))
		if err != nil || code != http.StatusOK {
			ol.failed++
			if ol.firstErr == "" {
				ol.firstErr = fmt.Sprintf("query %s: status %d, %v", q.path, code, err)
			}
		}
	}
}

// window lists the latencies of the queries due within [from, to).
func (ol *openLoop) window(from, to time.Time) []float64 {
	var xs []float64
	for i, d := range ol.due {
		if !d.Before(from) && d.Before(to) {
			xs = append(xs, ol.lat[i])
		}
	}
	return xs
}
