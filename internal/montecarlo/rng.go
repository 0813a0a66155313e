package montecarlo

import (
	"math"

	"repro/internal/logic"
)

// The Monte Carlo engines draw every random number from a per-run
// SplitMix64 stream: run r of a simulation seeded with Seed s starts
// at state runState(s, r). Unlike additively reseeded per-shard
// streams, per-run derived streams give:
//
//   - Stream separation: runState mixes (seed, run) through the
//     SplitMix64 finalizer, an avalanching bijection, so any two
//     distinct (seed, run) pairs start at effectively independent
//     64-bit states. Two SplitMix64 streams of length L collide only
//     if their states come within L of each other on the single
//     2^64-step golden-gamma cycle: for n streams of length L the
//     overlap probability is about n²·L/2^64 (≈ 1e-9 even at a
//     million runs of a million draws each).
//
//   - Shard independence: a worker shard is just a contiguous range
//     of global run indices. Run r consumes the same stream no matter
//     which shard evaluates it, which is what lets the packed
//     bit-parallel engine (bitsim.go) replay lane r's draws in a
//     node-major loop order and still match the scalar engine's
//     run-major order bit for bit.
//
// The engines draw through runSource's concrete float64/normFloat64,
// not a *rand.Rand, whose per-draw interface call to its source cost
// about a third of a packed simulation. Both reproduce math/rand's
// Float64 and ziggurat NormFloat64 over the same stream exactly.

// golden is the SplitMix64 state increment (2^64 / phi).
const golden = 0x9E3779B97F4A7C15

// mix64 is the SplitMix64 output finalizer, a bijection on uint64
// with full avalanche.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// runState derives the SplitMix64 starting state of run number run
// under the given user seed. Both arguments pass through mix64 so
// neighbouring seeds or run indices map to unrelated states.
func runState(seed int64, run int) uint64 {
	return mix64(mix64(uint64(seed)) + uint64(run)*golden)
}

// runSource is one run's SplitMix64 stream; reseeding is one store.
type runSource struct{ state uint64 }

// Uint64 advances the golden-gamma counter and finalizes it.
func (s *runSource) Uint64() uint64 {
	s.state += golden
	return mix64(s.state)
}

// float64 is math/rand's (*Rand).Float64 over this source: a uniform
// draw in [0, 1), resampling the (never observed) rounding up to 1.
func (s *runSource) float64() float64 {
	for {
		if f := float64(int64(s.Uint64()>>1)) / (1 << 63); f < 1 {
			return f
		}
	}
}

// normFloat64 is math/rand's ziggurat (*Rand).NormFloat64 over this
// source. The rectangle test accepts about 97% of draws; the rest
// continue out of line in normSlow.
func (s *runSource) normFloat64() float64 {
	j := int32(s.Uint64() >> 32) // math/rand: int32(Uint32()), Uint32 = Int63>>31
	if i := j & 0x7F; absInt32(j) < kn[i] {
		return float64(j) * float64(wn[i])
	}
	return s.normSlow(j)
}

// normSlow finishes a normFloat64 draw j whose rectangle test failed:
// the base strip (i == 0) samples the tail beyond rn, any other strip
// tests the wedge; a rejected wedge draws a fresh j.
func (s *runSource) normSlow(j int32) float64 {
	for {
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] {
			return x
		}
		if i == 0 {
			for {
				x = -math.Log(s.float64()) * (1.0 / rn)
				y := -math.Log(s.float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x
			}
			return -rn - x
		}
		if fn[i]+float32(s.float64())*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
		j = int32(s.Uint64() >> 32)
	}
}

// sampleInput draws a launch point's cycle behaviour: the value from
// a uniform and, for a transition, the arrival time from a normal.
func (s *runSource) sampleInput(ist *logic.InputStats) (logic.Value, float64) {
	v := ist.ValueAt(s.float64())
	if !v.Switching() {
		return v, 0
	}
	return v, ist.ArrivalAt(s.normFloat64())
}
