package stats

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

// Exponential has rate Lambda (>0).
type Exponential struct{ Lambda float64 }

// Sample draws an exponential variate.
func (e Exponential) Sample(r *RNG) float64 { return r.ExpFloat64() / e.Lambda }

// Mean of the exponential.
func (e Exponential) Mean() float64 { return 1 / e.Lambda }
