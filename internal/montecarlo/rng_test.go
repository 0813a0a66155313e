package montecarlo

import (
	"math"
	"math/rand"
	"testing"
)

// Int63 and Seed make runSource a rand.Source64, so rand.New over it
// is the reference that float64 and normFloat64 must reproduce.
func (s *runSource) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *runSource) Seed(seed int64) { s.state = uint64(seed) }

// Outcomes of a normFloat64 draw's first ziggurat step.
const (
	zigRect  = iota // rectangle test accepts
	zigTail         // base strip, rejected: samples the tail beyond rn
	zigWedge        // other strip, rejected: wedge test
)

// normPath classifies which ziggurat path the next normFloat64 draw
// from state enters, without consuming it.
func normPath(state uint64) int {
	peek := runSource{state: state}
	j := int32(peek.Uint64() >> 32)
	i := j & 0x7F
	switch {
	case absInt32(j) < kn[i]:
		return zigRect
	case i == 0:
		return zigTail
	}
	return zigWedge
}

// checkAgainstMathRand draws n values from a runSource starting at
// state — a normal, a normal, a uniform, and so on — and
// requires each to equal, bit for bit and in stream position, the
// same draw through rand.New over an identical source. It returns how
// many normal draws entered each ziggurat path.
func checkAgainstMathRand(t *testing.T, state uint64, n int) (paths [3]int) {
	t.Helper()
	got := &runSource{state: state}
	refSrc := &runSource{state: state}
	ref := rand.New(refSrc)
	for k := 0; k < n; k++ {
		var g, w float64
		kind := "float64"
		if k%3 == 2 {
			g, w = got.float64(), ref.Float64()
		} else {
			kind = "normFloat64"
			paths[normPath(got.state)]++
			g, w = got.normFloat64(), ref.NormFloat64()
		}
		if math.Float64bits(g) != math.Float64bits(w) || got.state != refSrc.state {
			t.Fatalf("start %#x draw %d (%s): got %v (state %#x), math/rand %v (state %#x)",
				state, k, kind, g, got.state, w, refSrc.state)
		}
	}
	return paths
}

// TestRunStateDistinct spot-checks the stream-separation property:
// nearby (seed, run) pairs land on well-separated SplitMix64 states.
func TestRunStateDistinct(t *testing.T) {
	seen := make(map[uint64]string, 4096)
	for seed := int64(1); seed <= 4; seed++ {
		for run := 0; run < 1024; run++ {
			s := runState(seed, run)
			if prev, dup := seen[s]; dup {
				t.Fatalf("state collision: (seed=%d,run=%d) and %s", seed, run, prev)
			}
			seen[s] = "earlier pair"
		}
	}
}

// TestRunSourceDeterministic: same state, same stream; the source is
// reusable by resetting state.
func TestRunSourceDeterministic(t *testing.T) {
	src := &runSource{}
	src.state = runState(1, 42)
	var first [8]uint64
	for i := range first {
		first[i] = src.Uint64()
	}
	src.state = runState(1, 42)
	for i := range first {
		if got := src.Uint64(); got != first[i] {
			t.Fatalf("draw %d: %d != %d after reseed", i, got, first[i])
		}
	}
	src.state = runState(1, 43)
	same := true
	for i := range first {
		if src.Uint64() != first[i] {
			same = false
		}
	}
	if same {
		t.Fatal("adjacent runs produced identical streams")
	}
}

// TestRunSourceMatchesMathRand anchors the engines' concrete draws to
// math/rand: 1.2M mixed uniform/normal draws from eight run streams
// must match (*rand.Rand).Float64/NormFloat64 over the same source,
// and both ziggurat slow paths must have been exercised.
func TestRunSourceMatchesMathRand(t *testing.T) {
	var paths [3]int
	for i, seed := range []int64{1, 2, 7919, -5} {
		for _, run := range []int{0, 9999 + i} {
			p := checkAgainstMathRand(t, runState(seed, run), 150_000)
			for k := range paths {
				paths[k] += p[k]
			}
		}
	}
	if paths[zigTail] == 0 || paths[zigWedge] == 0 {
		t.Fatalf("slow paths not exercised: %d tail, %d wedge draws", paths[zigTail], paths[zigWedge])
	}
	t.Logf("normal draws: %d rectangle, %d tail, %d wedge", paths[zigRect], paths[zigTail], paths[zigWedge])
}

// FuzzRunSourceNormal: from any start state, n draws equal math/rand's.
// The seed corpus in testdata/fuzz/FuzzRunSourceNormal starts on the
// tail and on the wedge path, so plain go test replays both.
func FuzzRunSourceNormal(f *testing.F) {
	f.Add(uint64(0), uint8(16))
	f.Fuzz(func(t *testing.T, state uint64, n uint8) {
		checkAgainstMathRand(t, state, int(n)+1)
	})
}

// TestRunSourceInt63 checks the rand.Source contract (non-negative).
func TestRunSourceInt63(t *testing.T) {
	src := &runSource{state: runState(7, 0)}
	for i := 0; i < 1000; i++ {
		if v := src.Int63(); v < 0 {
			t.Fatalf("Int63 returned negative %d", v)
		}
	}
}
