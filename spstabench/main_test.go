package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"
)

// requestBodies returns the first n request bodies of a workload.
func requestBodies(t *testing.T, name string, seed int64, n int) [][]byte {
	t.Helper()
	w, err := newWorkload(name, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for i := 0; i < n; i++ {
		r, err := w.at(i)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r.body)
	}
	return out
}

// TestSeedsDriveInputs checks that a seed regenerates identical inputs
// and that another seed generates different ones.
func TestSeedsDriveInputs(t *testing.T) {
	for _, name := range workloadNames {
		a := requestBodies(t, name, 1, 12)
		if b := requestBodies(t, name, 1, 12); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 generated different requests on two calls", name)
		}
		c := requestBodies(t, name, 2, 12)
		same := 0
		for i := range a {
			if bytes.Equal(a[i], c[i]) {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("%s: seeds 1 and 2 generated the same requests", name)
		}
	}
}

// TestDeterministicCounts checks that the counts later claims may rest
// on repeat exactly between two runs of one seed.
func TestDeterministicCounts(t *testing.T) {
	for _, name := range workloadNames {
		var counts []map[string]float64
		for k := 0; k < 2; k++ {
			w, err := newWorkload(name, 3, 2)
			if err != nil {
				t.Fatal(err)
			}
			ls, err := measureLayers(w, 2)
			if err != nil {
				t.Fatal(err)
			}
			counts = append(counts, ls.deterministic())
		}
		if !reflect.DeepEqual(counts[0], counts[1]) {
			t.Errorf("%s: counts differ between two runs of seed 3:\n%v\n%v", name, counts[0], counts[1])
		}
		if counts[0]["core.cost_units"] == 0 || counts[0]["incr.nets_recomputed"] == 0 || counts[0]["montecarlo.mc_ops"] == 0 {
			t.Errorf("%s: a work count is zero: %v", name, counts[0])
		}
	}
}

// TestShortRunsMatchBenchmarkJSON runs a short untraced and a short
// traced interactive benchmark end to end. Every response must match
// the direct API, and each mode must report exactly the metrics, with
// the units, that BENCHMARK.json declares for it.
func TestShortRunsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name, Unit string
	}
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		traced bool
		want   []declared
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		res, err := run(io.Discard, wInteractive, 1, 400*time.Millisecond, mode.traced)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("traced=%v: result %+v, want correct with attempts and no failures", mode.traced, res)
		}
		got := map[string]string{}
		for k, m := range res.Metrics {
			got[k] = m.Unit
		}
		want := map[string]string{}
		for _, d := range mode.want {
			want[d.Name] = d.Unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("traced=%v: metrics and units\n got %v\nwant %v", mode.traced, got, want)
		}
		if !mode.traced {
			for k, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", k, m.Value)
				}
			}
		}
	}
}
