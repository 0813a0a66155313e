package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// server is one in-process spstad with production defaults, served on
// a loopback listener.
type server struct {
	svc  *service.Service
	http *http.Server
	base string
	done chan error
}

// spstadConfig is the service configuration under test: the zero
// value, which is what cmd/spstad runs with no flags.
var spstadConfig = service.Config{}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := service.New(spstadConfig)
	s := &server{svc: svc, http: &http.Server{Handler: svc.Handler()},
		base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// close stops the HTTP server, waits for its serve loop to return and
// stops the service's background work.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.svc.Close()
	return err
}

var httpClient = &http.Client{
	Timeout:   2 * time.Minute,
	Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
}

// do sends one request and reads the whole response body.
func do(method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func post(base, path string, body []byte) ([]byte, error) {
	status, out, err := do(http.MethodPost, base+path, body)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("POST %s: status %d: %s", path, status, bytes.TrimSpace(out))
	}
	return out, err
}

// setupCall is one request of the workload's set-up.
type setupCall struct {
	path   string
	body   []byte
	digest string // expected netlist_digest of an upload
}

// setupCalls lists the requests that bring a fresh service to the
// state the timed phase starts from.
//   - interactive: register the nine profiles, fill the result cache
//     with their analyses and hydrate their delta sessions.
//   - mc-compare: register the nine profiles and fill the result cache
//     with their analyses, the SPSTA side of every compare.
func (w *workload) setupCalls() ([]setupCall, error) {
	var calls []setupCall
	add := func(path string, v any, digest string) error {
		body, err := json.Marshal(v)
		calls = append(calls, setupCall{path, body, digest})
		return err
	}
	for _, c := range w.profiles {
		if err := add("/v1/netlists", map[string]any{"bench": c.bench}, c.digest); err != nil {
			return nil, err
		}
		if err := add("/v1/analyze", map[string]any{"netlist_ref": c.digest, "sigma": sigma}, ""); err != nil {
			return nil, err
		}
		if w.name == wInteractive {
			if err := add("/v1/delta", service.DeltaRequest{NetlistRef: c.digest, Sigma: sigma, Edits: []service.DeltaEdit{}}, ""); err != nil {
				return nil, err
			}
		}
	}
	return calls, nil
}

// setup starts a service and replays the set-up calls against it.
func setup(calls []setupCall) (*server, time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer()
	if err != nil {
		return nil, 0, err
	}
	for _, c := range calls {
		out, err := post(srv.base, c.path, c.body)
		if err == nil && c.digest != "" {
			var up service.NetlistUploadResponse
			if err = json.Unmarshal(out, &up); err == nil && up.NetlistDigest != c.digest {
				err = fmt.Errorf("upload digest %s, want %s", up.NetlistDigest, c.digest)
			}
		}
		if err != nil {
			return nil, 0, errors.Join(fmt.Errorf("setup: %w", err), srv.close())
		}
	}
	return srv, time.Since(t0), nil
}

// sample is one timed request.
type sample struct {
	class  class
	lat    time.Duration
	failed bool
	// engineNS is the engine time the response reports. Traced phase
	// only: the flight-recorder summary's queue wait; the times
	// json.Unmarshal takes on the request body and json.Marshal on the
	// decoded response; and for a delta, the time the benchmark's own
	// incr session takes to reconcile the same edit set, right after
	// the served request.
	engineNS, queueNS, decodeNS, encodeNS, directNS int64
}

// keyed is the first response seen for a request key. It keeps the
// request's index, from which the verifier regenerates the request,
// and a SHA-256 digest of the canonical response, so that what the
// benchmark holds per key stays small and heap_peak_mb measures the
// service rather than the client.
type keyed struct {
	index int
	canon [sha256.Size]byte
}

// phase is one closed-loop timed window.
type phase struct {
	elapsed  time.Duration
	samples  []sample
	heapPeak uint64 // bytes
	// Traced phase only: allocation and GC pause totals over the
	// window, and the service's cache and rejection counters.
	allocBytes, gcPauseNS            uint64
	cacheHits, cacheMisses, rejected int64
}

// runner drives one workload against one service.
type runner struct {
	w      *workload
	srv    *server
	cursor atomic.Int64 // next request index; phases continue the list

	// direct holds the benchmark's own delta sessions, which the
	// traced phase applies each delta to.
	direct replayer

	mu         sync.Mutex
	first      map[string]*keyed
	mismatches []string // keys whose responses disagreed with each other
	errs       []string
}

func (r *runner) recordErr(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// one sends request i and returns its sample.
func (r *runner) one(i int, traced bool) sample {
	req, err := r.w.at(i)
	if err != nil {
		r.recordErr("request %d: %v", i, err)
		return sample{failed: true}
	}
	t0 := time.Now()
	status, body, err := do(http.MethodPost, r.srv.base+req.path, req.body)
	s := sample{class: req.class, lat: time.Since(t0)}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var sv *served
	if err == nil {
		sv, err = parseResponse(req.path, body)
	}
	if err != nil {
		r.recordErr("%s %s: %v", req.path, req.key, err)
		s.failed = true
		return s
	}
	s.engineNS = sv.engineNS
	sum := sha256.Sum256(sv.canon)
	r.mu.Lock()
	if k, ok := r.first[req.key]; !ok {
		r.first[req.key] = &keyed{index: i, canon: sum}
	} else if k.canon != sum {
		r.mismatches = append(r.mismatches, req.key)
		s.failed = true
	}
	r.mu.Unlock()
	if traced {
		r.trace(&s, req, sv)
	}
	return s
}

// trace adds the traced-phase spans to s: the request's flight-recorder
// summary, a json.Unmarshal of the request body into the service's
// request type and a json.Marshal of the served response.
func (r *runner) trace(s *sample, req *request, sv *served) {
	t0 := time.Now()
	if err := json.Unmarshal(req.body, requestValue(req.path)); err != nil {
		r.recordErr("decode: %v", err)
	}
	s.decodeNS = time.Since(t0).Nanoseconds()
	t0 = time.Now()
	if _, err := json.Marshal(sv.encodeValue); err != nil {
		r.recordErr("encode: %v", err)
	}
	s.encodeNS = time.Since(t0).Nanoseconds()
	if req.path == "/v1/delta" {
		_, d, err := r.direct.apply(req)
		if err != nil {
			r.recordErr("direct delta %s: %v", req.key, err)
		}
		s.directNS = d.Nanoseconds()
	}
	status, body, err := do(http.MethodGet, r.srv.base+"/debug/requests/"+sv.requestID, nil)
	var rec struct {
		Summary service.RequestSummary `json:"summary"`
	}
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &rec)
	} else if err == nil {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		r.recordErr("flight summary %s: %v", sv.requestID, err)
		return
	}
	s.queueNS = rec.Summary.QueueNS
}

// run replays the request list with the workload's closed-loop clients
// for d, continuing where the previous phase stopped.
func (r *runner) run(d time.Duration, traced bool) (*phase, error) {
	p := &phase{}
	var m0, m1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
		if err := r.serviceCounters(p, -1); err != nil {
			return nil, err
		}
	}
	stopHeap := make(chan struct{})
	heapDone := make(chan uint64)
	go sampleHeap(stopHeap, heapDone)

	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	for c := 0; c < r.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s := r.one(int(r.cursor.Add(1)-1), traced)
				mu.Lock()
				p.samples = append(p.samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(t0)
	close(stopHeap)
	p.heapPeak = <-heapDone
	if traced {
		runtime.ReadMemStats(&m1)
		p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		p.gcPauseNS = m1.PauseTotalNs - m0.PauseTotalNs
		if err := r.serviceCounters(p, 1); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// serviceCounters adds sign × the service's cache and rejection
// counters from /metrics to p.
func (r *runner) serviceCounters(p *phase, sign int64) error {
	status, body, err := do(http.MethodGet, r.srv.base+"/metrics", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET /metrics: status %d", status)
	}
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name string
		dst  *int64
	}{
		{"spstad_cache_hits_total", &p.cacheHits},
		{"spstad_cache_misses_total", &p.cacheMisses},
		{"spstad_requests_rejected_total", &p.rejected},
	} {
		v, err := promValue(body, c.name)
		if err != nil {
			return err
		}
		*c.dst += sign * v
	}
	return nil
}

// promValue reads an unlabelled integer series from Prometheus text.
func promValue(text []byte, name string) (int64, error) {
	for _, line := range bytes.Split(text, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte(name+" ")); ok {
			var v int64
			_, err := fmt.Sscan(string(rest), &v)
			return v, err
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

// sampleHeap records the largest live-heap reading (bytes in heap
// objects) every 5 ms until stop closes, then sends it on done.
func sampleHeap(stop <-chan struct{}, done chan<- uint64) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(s)
		peak = max(peak, s[0].Value.Uint64())
		select {
		case <-stop:
			done <- peak
			return
		case <-t.C:
		}
	}
}
