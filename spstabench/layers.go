package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/incr"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// probeSize is how many inputs of each kind the traced run replays
// directly through the layers' public APIs. The inputs are fixed by the
// seed, so the counts they produce repeat exactly for a seed.
const probeSize = 8

// probeInputs picks the workload's inputs for the direct layer calls:
// the spsta analyses its requests are served from, the delta edit
// sets its sessions apply, and the Monte Carlo simulations its
// compares run, n of each. A workload that sends no deltas or compares
// gets seeded ones on its own circuits, so every layer is measured on
// every workload's netlists. Neither workload sends fast-knob analyses,
// so each profile is also analysed at the fast knobs (certs), and the
// pruning and coarsening counts and the certificate are measured too.
func (w *workload) probeInputs(n int) (analyses, certs, deltas, mcs []*request, err error) {
	at := func(i int) *request {
		if err == nil {
			var r *request
			r, err = w.at(i)
			return r
		}
		return nil
	}
	base := func(c *circuit, cl class) *request {
		return &request{path: "/v1/analyze", class: cl, circ: c, coarsen: "off"}
	}
	mc := func(c *circuit, j int) *request {
		r := base(c, classOfSize(c))
		r.path, r.mcSeed = "/v1/compare", mix(w.seed, 8, int64(j))|1
		return r
	}
	for _, c := range w.profiles {
		cl := light
		if w.name == wCompare {
			cl = classOfSize(c)
		}
		analyses = append(analyses, base(c, cl))
		fast := base(c, cl)
		fast.eps, fast.coarsen = fastEps, "auto"
		certs = append(certs, fast)
	}
	if w.name == wCompare {
		pickers := map[*circuit]*editPicker{}
		for j := 0; j < n && err == nil; j++ {
			c := w.profiles[j%len(w.profiles)]
			if pickers[c] == nil {
				pickers[c] = newEditPicker(c, rngFor(w.seed, 7))
			}
			r, e := deltaRequest(c, pickers[c].next())
			if e != nil {
				return nil, nil, nil, nil, e
			}
			deltas = append(deltas, r)
			mcs = append(mcs, at(j))
		}
		return analyses, certs, deltas, mcs, err
	}
	for i := 0; len(deltas) < n && err == nil; i++ {
		if r := at(i); r != nil && r.path == "/v1/delta" {
			analyses = append(analyses, r)
			mcs = append(mcs, mc(r.circ, len(mcs)))
			deltas = append(deltas, r)
		}
	}
	return analyses, certs, deltas, mcs, err
}

// layerStats is what the direct layer calls measured.
type layerStats struct {
	parseMS, digestMS float64
	runMS             [numClasses]float64 // median Analyzer.Run per class
	workersSpeedup    float64
	snap              *obs.Snapshot // merged over the analyses
	maxBudget         float64
	updateMS          float64 // median incr reconcile per delta
	netsRecomputed    int64
	simMS             float64 // median packed Monte Carlo run
	simClassMS        [numClasses]float64
	mcSnap            *obs.Snapshot
	mcMaxMuDev        float64
}

// measureLayers calls each layer's public API on the probe inputs and
// times the calls. Runs are sequential, so the timings are free of
// contention from other calls of the benchmark.
func measureLayers(w *workload, n int) (*layerStats, error) {
	analyses, certs, deltas, mcs, err := w.probeInputs(n)
	if err != nil {
		return nil, err
	}
	ls := &layerStats{snap: &obs.Snapshot{}, mcSnap: &obs.Snapshot{}}

	var parse, digest []float64
	seen := map[string]bool{}
	for _, r := range analyses {
		if seen[r.circ.digest] {
			continue
		}
		seen[r.circ.digest] = true
		t0 := time.Now()
		c, err := bench.Parse(strings.NewReader(r.circ.bench), "inline")
		if err != nil {
			return nil, err
		}
		parse = append(parse, ms(time.Since(t0)))
		t0 = time.Now()
		netlist.Digest(c, nil)
		digest = append(digest, ms(time.Since(t0)))
	}
	ls.parseMS, ls.digestMS = median(parse), median(digest)

	var run [numClasses][]float64
	var serialNS, parallelNS time.Duration
	for i, r := range append(analyses, certs...) {
		scope := obs.NewScope()
		t0 := time.Now()
		res, err := runSPSTA(r, 0, scope)
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		ls.snap.Merge(scope.Snapshot())
		ls.maxBudget = max(ls.maxBudget, res.MaxConsumedBudget())
		res.Recycle()
		if i >= len(analyses) {
			continue
		}
		run[r.class] = append(run[r.class], ms(d))
		if r.class == heavy {
			t0 = time.Now()
			res, err = runSPSTA(r, 1, nil)
			if err != nil {
				return nil, err
			}
			serialNS += time.Since(t0)
			parallelNS += d
			res.Recycle()
		}
	}
	for c := range run {
		ls.runMS[c] = median(run[c])
	}
	ls.workersSpeedup = float64(serialNS) / float64(parallelNS)

	if err := ls.replayDeltas(deltas); err != nil {
		return nil, err
	}

	v := newVerifier()
	var sim []float64
	var simClass [numClasses][]float64
	for _, r := range mcs {
		scope := obs.NewScope()
		t0 := time.Now()
		mc, err := runMC(r.circ.c, r.mcSeed, scope)
		d := ms(time.Since(t0))
		if err != nil {
			return nil, err
		}
		sim = append(sim, d)
		simClass[r.class] = append(simClass[r.class], d)
		ls.mcSnap.Merge(scope.Snapshot())
		sp, err := v.baseSPSTA(r)
		if err != nil {
			return nil, err
		}
		ls.mcMaxMuDev = max(ls.mcMaxMuDev, compareRows(sp, mc, r.circ.c).MaxMuDev)
	}
	ls.simMS = median(sim)
	for c := range simClass {
		ls.simClassMS[c] = median(simClass[c])
	}
	if ls.simClassMS[heavy] == 0 || ls.simClassMS[light] == 0 {
		ls.simClassMS = [numClasses]float64{ls.simMS, ls.simMS}
	}
	return ls, nil
}

// deltaSession is one incr.SPSTA session, configured as spstad
// configures its sessions, with the gate overrides it has applied.
type deltaSession struct {
	mu      sync.Mutex
	sp      *incr.SPSTA
	applied map[netlist.NodeID]dist.Normal
}

// replayer applies delta edit sets to one session per circuit, by the
// reconcile rule of /v1/delta: dropped overrides are cleared, new or
// changed ones applied. Gates are taken in node order, so a sequence of
// edit sets recomputes a deterministic number of nets.
type replayer map[string]*deltaSession

// newReplayer builds a session for each circuit, untimed, as the
// service's set-up hydrates its sessions.
func newReplayer(circs []*circuit) (replayer, error) {
	rp := replayer{}
	for _, c := range circs {
		if rp[c.digest] != nil {
			continue
		}
		sp, err := incr.NewSPSTA(core.Analyzer{ErrorBudget: 0, Delay: delayModel(nil, c.c), Batched: core.BatchAuto},
			c.c, experiments.Inputs(c.c, experiments.ScenarioI))
		if err != nil {
			return nil, err
		}
		sp.Eps = 0
		rp[c.digest] = &deltaSession{sp: sp, applied: map[netlist.NodeID]dist.Normal{}}
	}
	return rp, nil
}

// apply reconciles r's edit set onto its circuit's session and returns
// the nets recomputed and the time the reconcile took. Concurrent
// calls on one circuit wait for each other, as /v1/delta requests do.
func (rp replayer) apply(r *request) (int, time.Duration, error) {
	ses := rp[r.circ.digest]
	want := map[netlist.NodeID]dist.Normal{}
	for _, e := range r.edits {
		n, ok := r.circ.c.Node(e.gate)
		if !ok {
			return 0, 0, fmt.Errorf("delta %s: unknown gate %s", r.key, e.gate)
		}
		want[n.ID] = dist.Normal{Mu: e.mu, Sigma: e.sigma}
	}
	ses.mu.Lock()
	defer ses.mu.Unlock()
	cur := ses.applied
	t0 := time.Now()
	evals := 0
	for _, id := range sortedIDs(cur) {
		if _, keep := want[id]; !keep {
			k, err := ses.sp.ClearDelay(id)
			if err != nil {
				return 0, 0, err
			}
			evals += k
			delete(cur, id)
		}
	}
	for _, id := range sortedIDs(want) {
		if d, ok := cur[id]; ok && d == want[id] {
			continue
		}
		k, err := ses.sp.SetDelay(id, want[id])
		if err != nil {
			return 0, 0, err
		}
		evals += k
		cur[id] = want[id]
	}
	return evals, time.Since(t0), nil
}

// replayDeltas applies the probe's edit sets in order to fresh
// sessions, for the deterministic recompute count and the median
// reconcile time.
func (ls *layerStats) replayDeltas(deltas []*request) error {
	var circs []*circuit
	for _, r := range deltas {
		circs = append(circs, r.circ)
	}
	rp, err := newReplayer(circs)
	if err != nil {
		return err
	}
	var times []float64
	for _, r := range deltas {
		evals, d, err := rp.apply(r)
		if err != nil {
			return err
		}
		times = append(times, ms(d))
		ls.netsRecomputed += int64(evals)
	}
	ls.updateMS = median(times)
	return nil
}

func sortedIDs(m map[netlist.NodeID]dist.Normal) []netlist.NodeID {
	ids := make([]netlist.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// deterministic returns the probe's counts that must repeat exactly
// between two runs of one seed.
func (ls *layerStats) deterministic() map[string]float64 {
	return map[string]float64{
		"core.cost_units":        float64(ls.snap.Cost.Total),
		"incr.nets_recomputed":   float64(ls.netsRecomputed),
		"montecarlo.mc_ops":      float64(ls.mcSnap.Cost.MCOps),
		"accuracy.mc_max_mu_dev": ls.mcMaxMuDev,
		"accuracy.max_budget":    ls.maxBudget,
	}
}

// layerMetrics flattens the probe into per-layer metrics.
func (ls *layerStats) layerMetrics() map[string]float64 {
	s := ls.snap
	m := ls.deterministic()
	m["bench.parse_ms"] = ls.parseMS
	m["netlist.digest_ms"] = ls.digestMS
	m["core.run_ms.heavy"] = ls.runMS[heavy]
	m["core.run_ms.light"] = ls.runMS[light]
	m["core.workers_speedup"] = ls.workersSpeedup
	m["core.leaf_ops"] = float64(s.Cost.LeafOps)
	m["core.mixture_ops"] = float64(s.Cost.MixtureOps)
	m["core.pruned_subtrees"] = float64(s.Pruning.Subtrees)
	m["core.rebin_levels"] = float64(s.Grid.RebinLevels)
	m["core.max_support_width"] = float64(s.Grid.SupportWidthPeak)
	m["dist.bin_ops"] = float64(s.Cost.BinOps)
	m["dist.conv_fft"] = float64(s.Convolution.FFT)
	m["dist.conv_direct"] = float64(s.Convolution.Direct)
	m["dist.kernel_hit_ratio"] = ratio(s.KernelCache.Hits, s.KernelCache.Misses)
	m["dist.fft_plan_hit_ratio"] = ratio(s.Batch.FFTPlanHits, s.Batch.FFTPlanMisses)
	m["dist.conv_plan_hit_ratio"] = ratio(s.Batch.ConvPlanHits, s.Batch.ConvPlanMisses)
	m["dist.pool_reuse_ratio"] = ratio(s.ScratchPool.Gets, s.ScratchPool.News)
	m["incr.update_ms"] = ls.updateMS
	m["montecarlo.sim_ms"] = ls.simMS
	m["montecarlo.settle_lanes"] = float64(ls.mcSnap.MonteCarloPacked.SettleLanes)
	return m
}
