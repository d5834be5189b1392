package stats

import (
	"fmt"
	"math"
)

// Distribution samples float64 values. All implementations are
// deterministic given the RNG they draw from.
type Distribution interface {
	Sample(r *RNG) float64
	// Mean returns the analytic mean of the distribution.
	Mean() float64
}

// Uniform is the continuous uniform distribution over [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Sample draws from the uniform distribution.
func (u Uniform) Sample(r *RNG) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

// Mean of the uniform distribution.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Normal is the Gaussian distribution.
type Normal struct{ Mu, Sigma float64 }

// Sample draws a Gaussian variate.
func (n Normal) Sample(r *RNG) float64 { return n.Mu + n.Sigma*r.NormFloat64() }

// Mean of the Gaussian.
func (n Normal) Mean() float64 { return n.Mu }

// TruncNormal is a Gaussian truncated to [Lo, Hi] via rejection with a
// clamping fallback after a bounded number of attempts.
type TruncNormal struct {
	Mu, Sigma float64
	Lo, Hi    float64
}

// Sample draws a truncated Gaussian variate.
func (t TruncNormal) Sample(r *RNG) float64 {
	for i := 0; i < 64; i++ {
		v := t.Mu + t.Sigma*r.NormFloat64()
		if v >= t.Lo && v <= t.Hi {
			return v
		}
	}
	v := t.Mu
	if v < t.Lo {
		v = t.Lo
	}
	if v > t.Hi {
		v = t.Hi
	}
	return v
}

// Mean returns the untruncated mean; adequate for the narrow truncations
// used by the dataset generators.
func (t TruncNormal) Mean() float64 { return t.Mu }

// LogNormal is the log-normal distribution parameterized by the mean and
// standard deviation of the underlying normal.
type LogNormal struct{ Mu, Sigma float64 }

// Sample draws a log-normal variate.
func (l LogNormal) Sample(r *RNG) float64 { return math.Exp(l.Mu + l.Sigma*r.NormFloat64()) }

// Mean of the log-normal.
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Constant always returns V. It models datasets with perfectly uniform
// image dimensions (e.g. Plant Village at 256x256).
type Constant struct{ V float64 }

// Sample returns the constant.
func (c Constant) Sample(*RNG) float64 { return c.V }

// Mean returns the constant.
func (c Constant) Mean() float64 { return c.V }

// Component is one weighted member of a Mixture.
type Component struct {
	Weight float64
	Dist   Distribution
}

// Mixture is a finite mixture distribution; used for the bimodal /
// multi-modal image-size spreads in Fig. 4 of the paper.
type Mixture struct{ Components []Component }

// Sample picks a component proportionally to weight and samples it.
func (m Mixture) Sample(r *RNG) float64 {
	total := 0.0
	for _, c := range m.Components {
		total += c.Weight
	}
	u := r.Float64() * total
	acc := 0.0
	for _, c := range m.Components {
		acc += c.Weight
		if u < acc {
			return c.Dist.Sample(r)
		}
	}
	return m.Components[len(m.Components)-1].Dist.Sample(r)
}

// Mean is the weight-averaged component mean.
func (m Mixture) Mean() float64 {
	total, acc := 0.0, 0.0
	for _, c := range m.Components {
		total += c.Weight
		acc += c.Weight * c.Dist.Mean()
	}
	if total == 0 {
		return 0
	}
	return acc / total
}

// Exponential has rate Lambda (>0).
type Exponential struct{ Lambda float64 }

// Sample draws an exponential variate.
func (e Exponential) Sample(r *RNG) float64 { return r.ExpFloat64() / e.Lambda }

// Mean of the exponential.
func (e Exponential) Mean() float64 { return 1 / e.Lambda }

// Validate checks that a distribution's parameters are sane.
func Validate(d Distribution) error {
	switch v := d.(type) {
	case Uniform:
		if v.Hi <= v.Lo {
			return fmt.Errorf("stats: uniform hi %v <= lo %v", v.Hi, v.Lo)
		}
	case Normal:
		if v.Sigma < 0 {
			return fmt.Errorf("stats: normal sigma %v < 0", v.Sigma)
		}
	case TruncNormal:
		if v.Hi <= v.Lo {
			return fmt.Errorf("stats: truncnormal hi %v <= lo %v", v.Hi, v.Lo)
		}
		if v.Sigma < 0 {
			return fmt.Errorf("stats: truncnormal sigma %v < 0", v.Sigma)
		}
	case LogNormal:
		if v.Sigma < 0 {
			return fmt.Errorf("stats: lognormal sigma %v < 0", v.Sigma)
		}
	case Exponential:
		if v.Lambda <= 0 {
			return fmt.Errorf("stats: exponential lambda %v <= 0", v.Lambda)
		}
	case Mixture:
		if len(v.Components) == 0 {
			return fmt.Errorf("stats: empty mixture")
		}
		for _, c := range v.Components {
			if c.Weight < 0 {
				return fmt.Errorf("stats: negative mixture weight %v", c.Weight)
			}
			if err := Validate(c.Dist); err != nil {
				return err
			}
		}
	}
	return nil
}
