package dist

import "math"

// Moments is an online (Welford) accumulator for the mean and
// variance of a sample stream. The zero value is ready to use.
type Moments struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (m *Moments) Add(x float64) {
	m.n++
	n := float64(m.n)
	delta := x - m.mean
	deltaN := delta / n
	m.mean += deltaN
	m.m2 += delta * deltaN * (n - 1)
}

// N returns the number of observations.
func (m *Moments) N() int64 { return m.n }

// Mean returns the sample mean (0 with no observations).
func (m *Moments) Mean() float64 { return m.mean }

// Var returns the population variance (dividing by n).
func (m *Moments) Var() float64 {
	if m.n == 0 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// Sigma returns the population standard deviation.
func (m *Moments) Sigma() float64 { return math.Sqrt(m.Var()) }

// Merge folds another accumulator into this one (parallel Welford).
func (m *Moments) Merge(o *Moments) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = *o
		return
	}
	na, nb := float64(m.n), float64(o.n)
	n := na + nb
	delta := o.mean - m.mean
	m.mean += delta * nb / n
	m.m2 = m.m2 + o.m2 + delta*delta*na*nb/n
	m.n += o.n
}

// Cov is an online accumulator for the covariance of paired samples.
// The zero value is ready to use.
type Cov struct {
	n            int64
	meanX, meanY float64
	c            float64
}

// Add folds one (x, y) observation pair into the accumulator.
func (c *Cov) Add(x, y float64) {
	c.n++
	dx := x - c.meanX
	c.meanX += dx / float64(c.n)
	c.meanY += (y - c.meanY) / float64(c.n)
	c.c += dx * (y - c.meanY)
}

// N returns the number of pairs.
func (c *Cov) N() int64 { return c.n }

// Cov returns the population covariance.
func (c *Cov) Cov() float64 {
	if c.n == 0 {
		return 0
	}
	return c.c / float64(c.n)
}
