package logic

import "fmt"

// InputStats describes the cycle statistics of a timing launch point
// (a primary input or a flip-flop output): the occurrence
// probabilities of the four logic values, and the normal distribution
// of the arrival time when the value is a transition.
//
// The paper's two experimental scenarios are provided as
// UniformStats (scenario I) and SkewedStats (scenario II).
type InputStats struct {
	// P holds the occurrence probabilities indexed by Value
	// (P[Zero], P[One], P[Rise], P[Fall]). They must be
	// non-negative and sum to one.
	P [NumValues]float64
	// Mu and Sigma parameterize the normal arrival-time
	// distribution of Rise and Fall transitions.
	Mu, Sigma float64
}

// UniformStats is the paper's scenario (I): equal probability 0.25
// for each of 0, 1, r, f, with standard normal transition times.
// The resulting signal probability is 0.5 and the mean toggling rate
// 0.5 with variance 0.25.
func UniformStats() InputStats {
	return InputStats{P: [NumValues]float64{0.25, 0.25, 0.25, 0.25}, Mu: 0, Sigma: 1}
}

// SkewedStats is the paper's scenario (II): 75% logic zero, 15% logic
// one, 2% rising, 8% falling, with standard normal transition times.
// The resulting signal probability is 0.2 and the mean toggling rate
// 0.1 with variance 0.09.
func SkewedStats() InputStats {
	return InputStats{P: [NumValues]float64{0.75, 0.15, 0.02, 0.08}, Mu: 0, Sigma: 1}
}

// Validate checks that the probabilities are a distribution and the
// transition-time standard deviation is non-negative.
func (s InputStats) Validate() error {
	sum := 0.0
	for v, p := range s.P {
		if p < 0 || p > 1 {
			return fmt.Errorf("logic: P[%v] = %v out of [0,1]", Value(v), p)
		}
		sum += p
	}
	if d := sum - 1; d > 1e-9 || d < -1e-9 {
		return fmt.Errorf("logic: input probabilities sum to %v, want 1", sum)
	}
	if s.Sigma < 0 {
		return fmt.Errorf("logic: negative transition-time sigma %v", s.Sigma)
	}
	return nil
}

// SignalProbability returns the occurrence probability of logic one
// at a uniformly random instant of the cycle: P(One) + (P(Rise) +
// P(Fall))/2, since a transitioning net spends on average half the
// cycle at one. This matches the paper's scenario arithmetic (0.5 for
// scenario I, 0.2 for scenario II).
func (s InputStats) SignalProbability() float64 {
	return s.P[One] + (s.P[Rise]+s.P[Fall])/2
}

// FinalOneProbability returns the probability that the net ends the
// cycle at logic one: P(One) + P(Rise).
func (s InputStats) FinalOneProbability() float64 { return s.P[One] + s.P[Rise] }

// TogglingRate returns the expected number of transitions per cycle:
// P(Rise) + P(Fall).
func (s InputStats) TogglingRate() float64 { return s.P[Rise] + s.P[Fall] }

// TogglingVariance returns the variance of the per-cycle transition
// count, rho(1-rho) for a Bernoulli toggle.
func (s InputStats) TogglingVariance() float64 {
	rho := s.TogglingRate()
	return rho * (1 - rho)
}

// ValueAt maps a uniform draw u in [0, 1) to a four-value logic
// value by inverting the occurrence distribution in the order 0, 1,
// r, f. Together with ArrivalAt it samples one cycle behaviour.
func (s InputStats) ValueAt(u float64) Value {
	switch {
	case u < s.P[Zero]:
		return Zero
	case u < s.P[Zero]+s.P[One]:
		return One
	case u < s.P[Zero]+s.P[One]+s.P[Rise]:
		return Rise
	}
	return Fall
}

// ArrivalAt maps a standard normal draw z to a transition arrival
// time from N(Mu, Sigma).
func (s InputStats) ArrivalAt(z float64) float64 { return s.Mu + s.Sigma*z }
