package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/netlist"
	"repro/internal/service"
	"repro/internal/synth"
)

// Workload names; BENCHMARK.json and reports refer to them, so they
// do not change.
const (
	wInteractive = "interactive"
	wCompare     = "mc-compare"
)

var workloadNames = []string{wInteractive, wCompare}

// Fixed request knobs shared by every workload.
const (
	sigma    = 0.2   // variational N(1, sigma^2) gate delays
	fastEps  = 1e-4  // the fast knobs' pruning budget (traced probe only)
	mcRuns   = 10000 // Monte Carlo runs per compare
	maxEdits = 3     // delta requests carry 1..maxEdits gate edits
	// hitsPerDelta is the interactive cache-read to delta ratio: the
	// hot:delta ratio of internal/loadgen's default mix (0.6:0.2).
	hitsPerDelta = 3
)

// class splits a workload's requests into a heavy and a light class,
// reported separately because one median over a mix of 0.3 ms and
// 15 ms requests is unstable.
type class int

const (
	heavy class = iota
	light
	numClasses
)

func (c class) String() string { return [...]string{"heavy", "light"}[c] }

// classNames names each workload's two classes in the report.
var classNames = map[string][numClasses]string{
	wInteractive: {"delta", "hit"},
	wCompare:     {"compare-large", "compare-small"},
}

// circuit is one netlist a workload registers, with the circuit the
// service will parse from it.
type circuit struct {
	name   string
	bench  string
	c      *netlist.Circuit
	digest string
}

func newCircuit(p synth.Profile) (*circuit, error) {
	g, err := synth.Generate(p)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := bench.Write(&buf, g); err != nil {
		return nil, err
	}
	// The service parses the text it is sent, so the reference circuit
	// is parsed from the same text rather than taken from synth.
	c, err := bench.Parse(strings.NewReader(buf.String()), "inline")
	if err != nil {
		return nil, err
	}
	return &circuit{name: p.Name, bench: buf.String(), c: c, digest: netlist.Digest(c, nil)}, nil
}

// edit is one gate-delay override of a delta request.
type edit struct {
	gate      string
	mu, sigma float64
}

// request is one entry of a workload's seeded request list.
type request struct {
	path  string // /v1/analyze, /v1/delta or /v1/compare
	class class
	// key groups requests whose responses must be identical; every
	// request of a key is checked against one direct API call.
	key  string
	body []byte

	circ    *circuit
	eps     float64 // spsta pruning budget
	coarsen string  // spsta coarsening mode
	edits   []edit  // /v1/delta override set
	mcSeed  int64   // /v1/compare Monte Carlo seed
}

// workload is a seeded traffic mix: a fixed request list (request i is
// a pure function of the seed and i) replayed by closed-loop clients.
type workload struct {
	name    string
	seed    int64
	clients int
	// profiles are the circuits registered during set-up.
	profiles []*circuit
	at       func(i int) (*request, error)
}

// mix derives an independent RNG seed from the workload seed and a
// stream tag (SplitMix64 finalizer).
func mix(seed int64, parts ...int64) int64 {
	z := uint64(seed)
	for _, p := range parts {
		z += 0x9e3779b97f4a7c15 + uint64(p)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z & (1<<53 - 1))
}

func rngFor(seed int64, parts ...int64) *rand.Rand {
	return rand.New(rand.NewSource(mix(seed, parts...)))
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

func newWorkload(name string, seed int64, clients int) (*workload, error) {
	w := &workload{name: name, seed: seed, clients: clients}
	if name != wInteractive && name != wCompare {
		return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames, ", "))
	}
	for _, p := range synth.Profiles() {
		c, err := newCircuit(p)
		if err != nil {
			return nil, err
		}
		w.profiles = append(w.profiles, c)
	}
	if name == wInteractive {
		list, err := w.interactiveList()
		if err != nil {
			return nil, err
		}
		w.at = func(i int) (*request, error) { return list[i%len(list)], nil }
		return w, nil
	}
	w.at = w.compareAt
	return w, nil
}

// interactiveList builds the cyclic interactive list: blocks of 36
// requests, each block holding hitsPerDelta cache-read analyzes and one
// delta per profile in a seeded order.
func (w *workload) interactiveList() ([]*request, error) {
	const blocks = 32
	rng := rngFor(w.seed, 4)
	pickers := map[*circuit]*editPicker{}
	for _, c := range w.profiles {
		pickers[c] = newEditPicker(c, rng)
	}
	var list []*request
	for b := 0; b < blocks; b++ {
		for _, k := range rng.Perm((hitsPerDelta + 1) * len(w.profiles)) {
			c := w.profiles[k%len(w.profiles)]
			if k < hitsPerDelta*len(w.profiles) {
				body, err := json.Marshal(map[string]any{"netlist_ref": c.digest, "sigma": sigma})
				if err != nil {
					return nil, err
				}
				list = append(list, &request{path: "/v1/analyze", class: light, circ: c,
					coarsen: "off", key: "hit|" + c.name, body: body})
				continue
			}
			r, err := deltaRequest(c, pickers[c].next())
			if err != nil {
				return nil, err
			}
			list = append(list, r)
		}
	}
	return list, nil
}

// editPicker draws the delta edit sets of one circuit. A delta's cost is
// set by the fanout cones of its gates, so gates are taken along a
// seed-offset Weyl sequence over the gates sorted by cone size, and the
// edit count cycles through 1..maxEdits: every seed then spreads its
// edits evenly over small and large cones. The seed picks the offsets
// and the new delays.
type editPicker struct {
	gates       []string // combinational gates by fanout-cone size
	off         float64
	picks, sets int
	rng         *rand.Rand
}

func newEditPicker(c *circuit, rng *rand.Rand) *editPicker {
	cone := map[netlist.NodeID]int{}
	var gates []*netlist.Node
	for _, n := range c.c.Nodes {
		if !n.Type.Combinational() {
			continue
		}
		gates = append(gates, n)
		seen := map[netlist.NodeID]bool{}
		stack := []netlist.NodeID{n.ID}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, out := range c.c.Nodes[id].Fanout {
				if !seen[out] && c.c.Nodes[out].Type.Combinational() {
					seen[out] = true
					stack = append(stack, out)
				}
			}
		}
		cone[n.ID] = len(seen)
	}
	sort.Slice(gates, func(i, j int) bool {
		a, b := gates[i], gates[j]
		return cone[a.ID] < cone[b.ID] || (cone[a.ID] == cone[b.ID] && a.Name < b.Name)
	})
	p := &editPicker{off: rng.Float64(), sets: rng.Intn(maxEdits), rng: rng}
	for _, g := range gates {
		p.gates = append(p.gates, g.Name)
	}
	return p
}

// next returns the next edit set: 1..maxEdits distinct gates with new
// delays.
func (p *editPicker) next() []edit {
	n := 1 + p.sets%maxEdits
	p.sets++
	var out []edit
	used := map[string]bool{}
	for len(out) < n {
		x := p.off + float64(p.picks)*0.6180339887498949
		p.picks++
		g := p.gates[int(float64(len(p.gates))*(x-math.Floor(x)))]
		if used[g] {
			continue
		}
		used[g] = true
		out = append(out, edit{gate: g, mu: round3(0.5 + 2*p.rng.Float64()), sigma: round3(0.05 + 0.35*p.rng.Float64())})
	}
	return out
}

func deltaRequest(c *circuit, edits []edit) (*request, error) {
	var js []service.DeltaEdit
	key := "delta|" + c.name
	for _, e := range edits {
		js = append(js, service.DeltaEdit{Gate: e.gate, Mu: e.mu, Sigma: e.sigma})
		key += fmt.Sprintf("|%s:%g:%g", e.gate, e.mu, e.sigma)
	}
	body, err := json.Marshal(service.DeltaRequest{NetlistRef: c.digest, Sigma: sigma, Edits: js})
	if err != nil {
		return nil, err
	}
	return &request{path: "/v1/delta", class: heavy, circ: c, key: key, body: body, edits: edits}, nil
}

// compareAt walks the profiles in seeded blocks of nine, each request
// with a fresh Monte Carlo seed so the Monte Carlo side never hits the
// cache. The two circuits near 500 gates form the heavy class.
func (w *workload) compareAt(i int) (*request, error) {
	n := len(w.profiles)
	c := w.profiles[rngFor(w.seed, 5, int64(i/n)).Perm(n)[i%n]]
	seed := mix(w.seed, 6, int64(i)) | 1
	body, err := json.Marshal(map[string]any{"netlist_ref": c.digest, "sigma": sigma, "runs": mcRuns, "seed": seed})
	if err != nil {
		return nil, err
	}
	return &request{path: "/v1/compare", class: classOfSize(c), circ: c, coarsen: "off",
		key: fmt.Sprintf("compare|%d", i), body: body, mcSeed: seed}, nil
}

// classOfSize puts s1196 and s1238 (about 560 nodes) in the heavy class
// and the seven profiles of at most about 220 nodes in the light one.
func classOfSize(c *circuit) class {
	if len(c.c.Nodes) >= 400 {
		return heavy
	}
	return light
}
