package montecarlo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// simulateGolden pins the exact output of Simulate. The packed-vs-
// scalar suite only proves the two engines agree with each other; a
// drift both share (a changed draw, settle or accumulator rounding)
// would pass it. These SHA-256 digests cover every net's occurrence
// counts, criticality count, and the float64 bits of its rise/fall
// arrival Mean and Var. They were recorded before the concrete
// per-lane RNG, fanin-major settle and two-moment accumulator went
// in, and hold unchanged across them.
var simulateGolden = map[string]string{
	"s344/seed=1/workers=1":     "6fb18325310d6a00415e5a4cca1e8675cfc083f8b83b4ccb91b42892a2b6e3a7",
	"s344/seed=1/workers=2":     "c5967e7fcf7b846d59661c122d3b0709af9995c48b37f93f1b77bb526752e076",
	"s344/seed=7919/workers=1":  "713601020269d0f8e959d3b074a40c3d3bb6fd6c5356b57a3f787b42d20e9f85",
	"s344/seed=7919/workers=2":  "e8b5c376092256e0823d57b97f3f2e1f72154e55cb92d98e37a0083559054b6e",
	"s1196/seed=1/workers=1":    "ae3a10be8658bc967e1a042a16c428a7bac2e59f653153a689651214a099fb81",
	"s1196/seed=1/workers=2":    "44cf9b508c47aafd4f4bcbe8236196268a992998e32360a033f1312b5d6e3dc8",
	"s1196/seed=7919/workers=1": "da9d9f04ee3e0541995fc658342794c69b08ad678f22de7946b150c8dbdefaea",
	"s1196/seed=7919/workers=2": "9338d66aca58fab7a6fe9bc1654ef70f3348fbfe57c6baa3ef56a16f469922e4",
}

// resultDigest hashes the statistics simulateGolden pins.
func resultDigest(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	put(uint64(res.Runs))
	for i := range res.Stats {
		s := &res.Stats[i]
		for _, n := range s.Count {
			put(uint64(n))
		}
		put(uint64(s.Critical))
		for _, m := range []*dist.Moments{&s.Rise, &s.Fall} {
			put(uint64(m.N()))
			put(math.Float64bits(m.Mean()))
			put(math.Float64bits(m.Var()))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSimulateGolden: s344 and s1196 under scenario I with N(1, 0.2²)
// gate delays, two seeds, serial and two-way sharded, on both engines.
// 3001 runs leave a partial trailing block and an odd shard boundary.
func TestSimulateGolden(t *testing.T) {
	noisy := func(*netlist.Node) dist.Normal { return dist.Normal{Mu: 1, Sigma: 0.2} }
	for _, name := range []string{"s344", "s1196"} {
		c := genCircuit(t, name)
		inputs := scenarioInputs(c, logic.UniformStats)
		for _, seed := range []int64{1, 7919} {
			for _, workers := range []int{1, 2} {
				key := fmt.Sprintf("%s/seed=%d/workers=%d", name, seed, workers)
				for _, packed := range []bool{false, true} {
					res, err := Simulate(c, inputs, Config{
						Runs: 3001, Seed: seed, Workers: workers, Delay: noisy,
						CountCriticality: true, Packed: packed,
					})
					if err != nil {
						t.Fatal(err)
					}
					if got := resultDigest(res); got != simulateGolden[key] {
						t.Errorf("%s packed=%v: digest %s, want %s", key, packed, got, simulateGolden[key])
					}
				}
			}
		}
	}
}
