package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/logic"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/ssta"
)

// The canonical forms below hold the part of a response that a direct
// call into the public API must reproduce. They are compared as JSON
// bytes (by their SHA-256 digest): encoding/json writes the shortest
// text that round-trips a float64, so equal bytes mean bit-identical
// values.

type analyzeCanon struct {
	Endpoints  []service.EndpointStat `json:"endpoints"`
	CostUnits  int64                  `json:"cost_units"`
	PrunedMass float64                `json:"pruned_mass"`
	MaxBudget  float64                `json:"max_budget"`
}

type deltaCanon struct {
	Endpoints []service.EndpointStat `json:"endpoints"`
}

type compareCanon struct {
	Rows        []service.CompareRow `json:"rows"`
	MaxMuDev    float64              `json:"max_mu_dev"`
	MaxSigmaDev float64              `json:"max_sigma_dev"`
}

// served is what the benchmark keeps of one response.
type served struct {
	requestID string
	canon     []byte
	// engineNS is the engine time the response reports for work done
	// by this request (0 for a cache hit; compare responses carry none).
	engineNS int64
	// encodeValue is the decoded response, re-encoded in traced runs to
	// time json.Marshal of the served response.
	encodeValue any
}

// requestValue returns a new value of the type spstad decodes a
// request to path into.
func requestValue(path string) any {
	if path == "/v1/delta" {
		return &service.DeltaRequest{}
	}
	return &service.Request{}
}

func parseResponse(path string, body []byte) (*served, error) {
	var canon any
	s := &served{}
	switch path {
	case "/v1/analyze":
		var resp service.Response
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		if len(resp.Engines) != 1 {
			return nil, fmt.Errorf("analyze: %d engine results, want 1", len(resp.Engines))
		}
		er := resp.Engines[0]
		if !er.Cached {
			s.engineNS = er.ElapsedNS
		}
		s.requestID, s.encodeValue = resp.RequestID, &resp
		canon = analyzeCanon{er.Endpoints, er.CostUnits, er.PrunedMass, er.MaxBudget}
	case "/v1/delta":
		var resp service.DeltaResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		s.engineNS = resp.Engine.ElapsedNS
		s.requestID, s.encodeValue = resp.RequestID, &resp
		canon = deltaCanon{resp.Engine.Endpoints}
	case "/v1/compare":
		var resp service.CompareResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		s.requestID, s.encodeValue = resp.RequestID, &resp
		canon = compareCanon{resp.Rows, resp.MaxMuDev, resp.MaxSigmaDev}
	default:
		return nil, fmt.Errorf("unknown path %q", path)
	}
	var err error
	s.canon, err = json.Marshal(canon)
	return s, err
}

// delayModel is the service's variational delay model with the
// request's gate overrides applied.
func delayModel(edits []edit, c *netlist.Circuit) ssta.DelayModel {
	over := make(map[netlist.NodeID]dist.Normal, len(edits))
	for _, e := range edits {
		n, _ := c.Node(e.gate)
		over[n.ID] = dist.Normal{Mu: e.mu, Sigma: e.sigma}
	}
	return func(n *netlist.Node) dist.Normal {
		if d, ok := over[n.ID]; ok {
			return d
		}
		return dist.Normal{Mu: 1, Sigma: sigma}
	}
}

func coarsenPolicy(mode string) core.CoarsenPolicy {
	m, _ := core.ParseCoarsenMode(mode)
	return core.CoarsenPolicy{Mode: m}
}

// runSPSTA is a direct core.Analyzer.Run at a request's knobs.
func runSPSTA(r *request, workers int, scope *obs.Scope) (*core.Result, error) {
	a := core.Analyzer{
		Workers: workers, Delay: delayModel(r.edits, r.circ.c), ErrorBudget: r.eps,
		Coarsen: coarsenPolicy(r.coarsen), Obs: scope,
	}
	return a.Run(r.circ.c, experiments.Inputs(r.circ.c, experiments.ScenarioI))
}

// runMC is a direct packed montecarlo.Simulate with the service's
// settings for a compare request (shards = GOMAXPROCS, as spstad uses).
func runMC(c *netlist.Circuit, seed int64, scope *obs.Scope) (*montecarlo.Result, error) {
	return montecarlo.Simulate(c, experiments.Inputs(c, experiments.ScenarioI), montecarlo.Config{
		Runs: mcRuns, Seed: seed, Workers: runtime.GOMAXPROCS(0),
		Delay: delayModel(nil, c), Packed: true, Obs: scope,
	})
}

func spstaEndpoints(res *core.Result, c *netlist.Circuit) []service.EndpointStat {
	var out []service.EndpointStat
	for _, ep := range c.Endpoints() {
		rm, rs, rp := res.Arrival(ep, ssta.DirRise)
		fm, fs, fp := res.Arrival(ep, ssta.DirFall)
		out = append(out, service.EndpointStat{
			Net: c.Nodes[ep].Name,
			P0:  res.Probability(ep, logic.Zero), P1: res.Probability(ep, logic.One),
			Rise: service.DirStat{Mu: rm, Sigma: rs, P: rp},
			Fall: service.DirStat{Mu: fm, Sigma: fs, P: fp},
		})
	}
	return out
}

// compareRows applies /v1/compare's row rule: one row per endpoint and
// direction that some Monte Carlo run saw transition.
func compareRows(sp *core.Result, mc *montecarlo.Result, c *netlist.Circuit) compareCanon {
	var out compareCanon
	abs := func(v float64) float64 { return max(v, -v) }
	for _, ep := range c.Endpoints() {
		for _, dir := range []ssta.Dir{ssta.DirRise, ssta.DirFall} {
			v, name := logic.Rise, "rise"
			if dir == ssta.DirFall {
				v, name = logic.Fall, "fall"
			}
			if mc.P(ep, v) == 0 {
				continue
			}
			mu, sg, _ := sp.Arrival(ep, dir)
			m := mc.Arrival(ep, dir)
			row := service.CompareRow{
				Net: c.Nodes[ep].Name, Dir: name,
				SPSTAMu: mu, SPSTASigma: sg, MCMu: m.Mean(), MCSigma: m.Sigma(),
				DMu: abs(mu - m.Mean()), DSigma: abs(sg - m.Sigma()),
			}
			out.Rows = append(out.Rows, row)
			out.MaxMuDev = max(out.MaxMuDev, row.DMu)
			out.MaxSigmaDev = max(out.MaxSigmaDev, row.DSigma)
		}
	}
	return out
}

// verifier computes the expected canonical form of a request by direct
// calls into the public engine APIs. The unedited analysis of a
// circuit, which every compare of that circuit needs, is computed once.
type verifier struct {
	mu   sync.Mutex
	base map[string]*core.Result
}

func newVerifier() *verifier { return &verifier{base: make(map[string]*core.Result)} }

func (v *verifier) baseSPSTA(r *request) (*core.Result, error) {
	v.mu.Lock()
	res, ok := v.base[r.circ.digest]
	v.mu.Unlock()
	if ok {
		return res, nil
	}
	base := *r
	base.edits = nil
	res, err := runSPSTA(&base, 1, nil)
	if err != nil {
		return nil, err
	}
	v.mu.Lock()
	v.base[r.circ.digest] = res
	v.mu.Unlock()
	return res, nil
}

func (v *verifier) expected(r *request) ([]byte, error) {
	switch r.path {
	case "/v1/analyze", "/v1/delta":
		scope := obs.NewScope()
		res, err := runSPSTA(r, 1, scope)
		if err != nil {
			return nil, err
		}
		defer res.Recycle()
		if r.path == "/v1/delta" {
			return json.Marshal(deltaCanon{spstaEndpoints(res, r.circ.c)})
		}
		return json.Marshal(analyzeCanon{spstaEndpoints(res, r.circ.c), scope.M().CostUnits(),
			res.TotalPrunedMass(), res.MaxConsumedBudget()})
	case "/v1/compare":
		sp, err := v.baseSPSTA(r)
		if err != nil {
			return nil, err
		}
		mc, err := runMC(r.circ.c, r.mcSeed, nil)
		if err != nil {
			return nil, err
		}
		return json.Marshal(compareRows(sp, mc, r.circ.c))
	}
	return nil, fmt.Errorf("unknown path %q", r.path)
}

// verifyAll checks one response per distinct key against the direct
// API, on min(2, GOMAXPROCS) goroutines, and returns the keys whose
// response differed. Responses repeating a key were already compared
// with the key's first response as they arrived.
func verifyAll(w *workload, first map[string]*keyed) (mismatched []string, err error) {
	keys := make([]string, 0, len(first))
	for k := range first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	v := newVerifier()
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next int
	)
	for g := 0; g < min(2, runtime.GOMAXPROCS(0)); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(keys) || err != nil {
					mu.Unlock()
					return
				}
				key := keys[next]
				next++
				mu.Unlock()
				r, e := w.at(first[key].index)
				var want []byte
				if e == nil {
					want, e = v.expected(r)
				}
				mu.Lock()
				switch {
				case e != nil:
					err = fmt.Errorf("verify %s: %w", key, e)
				case sha256.Sum256(want) != first[key].canon:
					mismatched = append(mismatched, key)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Strings(mismatched)
	return mismatched, err
}
