// Command spstabench is the request-path benchmark of spstad. It starts
// an in-process spstad with production defaults on a loopback
// listener, replays one workload's seeded request list with at most
// GOMAXPROCS closed-loop clients for a fixed time, checks every
// distinct response against a direct call into the public engine
// APIs, and prints the workload's metrics. See README.md.
//
//	spstabench --workload interactive --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/service"
)

// setupRepeats is how many fresh services each run sets up and times
// after one untimed warm-up set-up; setup_s is their median and the
// last one serves the timed phase.
const setupRepeats = 9

// layerTolerance is how far the traced run's layer spans may add up
// beyond the measured client latency before the run fails.
const layerTolerance = 0.10

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "workload seed (netlists, edits, Monte Carlo seeds)")
	seconds := flag.Int("seconds", 15, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "spstabench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	// With --workload all, the last line merges the workloads' results
	// and prefixes each metric with its workload.
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		fmt.Printf("# workload %s\n", n)
		r, err := run(os.Stdout, n, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spstabench:", err)
			os.Exit(1)
		}
		if len(names) == 1 {
			res = r
			break
		}
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for k, v := range r.Metrics {
			res.Metrics[n+"/"+k] = v
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spstabench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// meta describes the run.
type meta struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Traced     bool           `json:"traced"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Underprocs bool           `json:"gomaxprocs_below_nproc"`
	Clients    int            `json:"clients"`
	GoVersion  string         `json:"go_version"`
	CPU        string         `json:"cpu"`
	Commit     string         `json:"commit"`
	Spstad     map[string]any `json:"spstad_config"`
}

func runMeta(w *workload, d time.Duration, traced bool) meta {
	m := meta{
		Workload: w.name, Seed: w.seed, Seconds: d.Seconds(), Traced: traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: w.clients,
		GoVersion: runtime.Version(), CPU: cpuModel(), Commit: "unknown (built outside git)",
		Spstad: map[string]any{
			"config":             fmt.Sprintf("%+v", spstadConfig),
			"max_concurrent":     runtime.GOMAXPROCS(0),
			"max_queue":          16,
			"cache_bytes":        service.DefaultCacheBytes,
			"registry_size":      service.DefaultRegistrySize,
			"session_cache_size": service.DefaultSessionCacheSize,
		},
	}
	m.Underprocs = m.GOMAXPROCS < m.NProc
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = map[string]string{"true": "+modified"}[s.Value]
			}
		}
		if rev != "" {
			m.Commit = rev + dirty
		}
	}
	return m
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// run benchmarks one workload and returns the result line. The report
// lines before it go to out.
func run(out io.Writer, name string, seed int64, d time.Duration, traced bool) (*result, error) {
	w, err := newWorkload(name, seed, min(2, runtime.GOMAXPROCS(0)))
	if err != nil {
		return nil, err
	}
	md := runMeta(w, d, traced)
	mj, _ := json.Marshal(md)
	fmt.Fprintf(out, "# meta %s\n", mj)
	if md.Underprocs {
		fmt.Fprintf(out, "# WARNING: GOMAXPROCS %d is below nproc %d; this run does not measure the host's cores\n", md.GOMAXPROCS, md.NProc)
	}
	calls, err := w.setupCalls()
	if err != nil {
		return nil, err
	}

	// The warm-up set-up absorbs the process's one-time costs (lazily
	// built engine tables, heap growth). Each service is closed and the
	// heap collected before the next set-up starts, so every timed
	// set-up starts from the same state.
	var setups []float64
	var srv *server
	for k := 0; k <= setupRepeats; k++ {
		runtime.GC()
		s, dt, err := setup(calls)
		if err != nil {
			return nil, err
		}
		if k > 0 {
			setups = append(setups, dt.Seconds())
		}
		if k == setupRepeats {
			srv = s
		} else if err := s.close(); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(out, "# setup: %d fresh services after one warm-up, in %v s\n", setupRepeats, setups)
	r := &runner{w: w, srv: srv, first: map[string]*keyed{}}
	res, err := measure(out, r, d, traced, median(setups))
	if cerr := srv.close(); err == nil && cerr != nil {
		err = cerr
	}
	return res, err
}

// measure runs the timed phase(s), verifies the responses and builds
// the result.
func measure(out io.Writer, r *runner, d time.Duration, traced bool, setupS float64) (*result, error) {
	var phases []*phase
	if traced {
		var err error
		if r.direct, err = newReplayer(r.w.profiles); err != nil {
			return nil, err
		}
		// The untraced half is the baseline the traced half's latencies
		// are compared with to report the tracing overhead.
		for _, t := range []bool{false, true} {
			p, err := r.run(d/2, t)
			if err != nil {
				return nil, err
			}
			phases = append(phases, p)
		}
	} else {
		p, err := r.run(d, false)
		if err != nil {
			return nil, err
		}
		phases = append(phases, p)
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, p := range phases {
		for _, s := range p.samples {
			res.Attempted++
			if s.failed {
				res.Failed++
			}
		}
	}
	for _, e := range r.errs {
		fmt.Fprintf(out, "# error: %s\n", e)
	}
	mism, err := verifyAll(r.w, r.first)
	if err != nil {
		return nil, err
	}
	if n := len(r.mismatches) + len(mism); n > 0 {
		res.Correct = false
		res.Failed += len(mism)
		fmt.Fprintf(out, "# verification: %d responses differ from the direct API or from each other, e.g. %s\n",
			n, strings.Join(append(r.mismatches, mism...)[:min(n, 3)], ", "))
	}
	fmt.Fprintf(out, "# verification: %d distinct responses checked against the direct API, %d mismatched\n",
		len(r.first), len(mism))

	names := classNames[r.w.name]
	if !traced {
		p := phases[0]
		e2e := endToEnd(p, setupS)
		for c := class(0); c < numClasses; c++ {
			fmt.Fprintf(out, "# class %s = %s: %d samples\n", c, names[c], len(latencies(p, c)))
		}
		for k, v := range e2e {
			res.Metrics[k] = metric{v, unitOf(k)}
		}
	} else {
		ok, err := traceMetrics(out, r.w, phases[0], phases[1], res.Metrics)
		if err != nil {
			return nil, err
		}
		res.Correct = res.Correct && ok
	}
	printMetrics(out, res.Metrics)
	return res, nil
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func endToEnd(p *phase, setupS float64) map[string]float64 {
	ok := 0
	for _, s := range p.samples {
		if !s.failed {
			ok++
		}
	}
	m := map[string]float64{
		"setup_s":      setupS,
		"req_per_s":    float64(ok) / p.elapsed.Seconds(),
		"heap_peak_mb": float64(p.heapPeak) / (1 << 20),
	}
	for c := class(0); c < numClasses; c++ {
		lat := latencies(p, c)
		m[c.String()+"_p50_ms"] = percentile(lat, 0.50)
		m[c.String()+"_p90_ms"] = percentile(lat, 0.90)
	}
	return m
}

// latencies returns the successful requests' latencies of a class, in ms.
func latencies(p *phase, c class) []float64 {
	var out []float64
	for _, s := range p.samples {
		if !s.failed && s.class == c {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

// traceMetrics computes the per-layer metrics from the traced phase and
// the direct layer calls, and checks that the layer spans of each class
// do not add up to more than its client latency.
func traceMetrics(out io.Writer, w *workload, plain, traced *phase, m map[string]metric) (bool, error) {
	ls, err := measureLayers(w, probeSize)
	if err != nil {
		return false, err
	}
	vals := ls.layerMetrics()
	ok := true
	var queue []float64
	for _, s := range traced.samples {
		if !s.failed {
			queue = append(queue, float64(s.queueNS)/1e6)
		}
	}
	vals["service.queue_ms.p50"] = percentile(queue, 0.50)
	vals["service.queue_ms.p90"] = percentile(queue, 0.90)
	vals["service.cache_hit_ratio"] = ratio(traced.cacheHits, traced.cacheMisses)
	vals["service.rejected"] = float64(traced.rejected)
	fmt.Fprintf(out, "# service.cache_hit_ratio base: %d hits / %d lookups\n", traced.cacheHits, traced.cacheHits+traced.cacheMisses)
	vals["runtime.alloc_mb_per_req"] = float64(traced.allocBytes) / float64(max(len(queue), 1)) / (1 << 20)
	vals["runtime.gc_pause_ms"] = float64(traced.gcPauseNS) / 1e6

	names := classNames[w.name]
	for c := class(0); c < numClasses; c++ {
		var self, enc, share, rest, served, direct []float64
		for _, s := range traced.samples {
			if s.failed || s.class != c {
				continue
			}
			lat, queue := ms(s.lat), float64(s.queueNS)/1e6
			// The engine span comes from the benchmark's own direct call
			// into the layer that serves the request: the incr reconcile
			// of the same delta, made right after it, or the direct Monte
			// Carlo run of the class. A cache hit runs no engine. The
			// engine time the response reports is only a cross-check.
			engine := float64(s.directNS) / 1e6
			if w.name == wCompare {
				engine = ls.simClassMS[c]
			}
			spans := queue + engine + float64(s.decodeNS+s.encodeNS)/1e6
			reported := float64(s.engineNS) / 1e6
			served = append(served, reported)
			if w.name == wCompare {
				// Compare responses report no engine time; the direct
				// run stands in for it in service.self_ms.
				reported = engine
			}
			self = append(self, lat-reported-queue)
			enc = append(enc, float64(s.encodeNS)/1e6)
			share = append(share, spans/lat)
			rest = append(rest, lat-spans)
			direct = append(direct, engine)
		}
		k := c.String()
		vals["service.self_ms."+k] = median(self)
		vals["service.encode_ms."+k] = median(enc)
		vals["layers.attributed_share."+k] = median(share)
		vals["layers.unattributed_ms."+k] = median(rest)
		p0, p1 := percentile(latencies(plain, c), 0.5), percentile(latencies(traced, c), 0.5)
		vals["trace.overhead."+k] = p1/p0 - 1
		fmt.Fprintf(out, "# class %s = %s: %d untraced / %d traced samples; p50 %.3f ms untraced, %.3f ms traced\n",
			k, names[c], len(latencies(plain, c)), len(latencies(traced, c)), p0, p1)
		fmt.Fprintf(out, "# class %s = %s: engine span p50 %.3f ms from direct calls, %.3f ms as the responses report it\n",
			k, names[c], median(direct), median(served))
		if median(share) > 1+layerTolerance {
			ok = false
			fmt.Fprintf(out, "# layer-sum check FAILED for %s: layer spans add up to %.1f%% of client latency (tolerance %.0f%%)\n",
				names[c], 100*median(share), 100*layerTolerance)
		}
	}
	for k, v := range vals {
		m[k] = metric{v, unitOf(k)}
	}
	return ok, nil
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.Contains(name, "_mb"):
		return "MB"
	case strings.Contains(name, "ratio"), strings.Contains(name, "share"), strings.HasPrefix(name, "trace.overhead"):
		return "ratio"
	case name == "core.workers_speedup":
		return "x"
	case name == "accuracy.mc_max_mu_dev":
		return "gate_delay"
	case name == "accuracy.max_budget":
		return "prob"
	}
	return "count"
}

func printMetrics(out io.Writer, m map[string]metric) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "# %-32s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
