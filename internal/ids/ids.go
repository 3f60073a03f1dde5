// Package ids simulates the intrusion-detection layer of the TOLERANCE
// testbed (§VII-A runs Snort with ruleset v2.9.17.1 on every node). Each
// container type from Table 4 has a per-state alert profile; controllers
// never see the true distribution — they estimate Ẑ by maximum likelihood
// from M samples exactly as the paper does (§VIII-A, Fig 11), and the
// Kullback-Leibler ranking of candidate metrics reproduces Fig 18 / App. H.
//
// Alert counts are "weighted by priority" in the paper with supports up to
// ~20000; we keep the same distributional shapes on a compact support
// (0..AlertSupport-1), which preserves every quantity the controllers
// consume (likelihood ratios, KL divergences, beliefs).
package ids

import (
	"errors"
	"fmt"
	"math/rand"

	"tolerance/internal/dist"
)

// AlertSupport is the size of the discretized alert space.
const AlertSupport = 32

// ErrBadProfile is returned for malformed profiles.
var ErrBadProfile = errors.New("ids: bad profile")

// Profile is a container's true alert model: the distribution of priority-
// weighted alert counts with and without an ongoing intrusion (the red and
// blue histograms of Fig 11).
type Profile struct {
	// Name identifies the vulnerability/container (Table 4).
	Name string
	// NoIntrusion is Z(. | H).
	NoIntrusion *dist.Categorical
	// Intrusion is Z(. | C).
	Intrusion *dist.Categorical
}

// Validate checks the profile.
func (p Profile) Validate() error {
	if p.Name == "" || p.NoIntrusion == nil || p.Intrusion == nil {
		return fmt.Errorf("%w: incomplete profile %q", ErrBadProfile, p.Name)
	}
	if p.NoIntrusion.Len() != AlertSupport || p.Intrusion.Len() != AlertSupport {
		return fmt.Errorf("%w: support %d/%d, want %d", ErrBadProfile,
			p.NoIntrusion.Len(), p.Intrusion.Len(), AlertSupport)
	}
	return nil
}

// Divergence returns D_KL(Z_H || Z_C), the detectability of intrusions on
// this container (Fig 14's x-axis).
func (p Profile) Divergence() float64 {
	return dist.KLSmoothed(p.NoIntrusion, p.Intrusion, 1e-9)
}

// NewBetaBinomialProfile builds a profile from two Beta-Binomial shapes on
// the alert support (the same family the paper uses for its numerical
// evaluation, Table 8).
func NewBetaBinomialProfile(name string, alphaH, betaH, alphaC, betaC float64) (Profile, error) {
	h, err := dist.NewBetaBinomial(AlertSupport-1, alphaH, betaH)
	if err != nil {
		return Profile{}, err
	}
	c, err := dist.NewBetaBinomial(AlertSupport-1, alphaC, betaC)
	if err != nil {
		return Profile{}, err
	}
	p := Profile{Name: name, NoIntrusion: h.Categorical(), Intrusion: c.Categorical()}
	if err := p.Validate(); err != nil {
		return Profile{}, err
	}
	return p, nil
}

// FittedZ is the estimated observation model a node controller uses: the
// paper computes Ẑ with M = 25,000 samples (Glivenko-Cantelli guarantees
// almost-sure convergence).
type FittedZ struct {
	// Healthy is Ẑ(. | H).
	Healthy *dist.Categorical
	// Compromised is Ẑ(. | C).
	Compromised *dist.Categorical
	// Samples is the number of MLE samples per state.
	Samples int
}

// Fit estimates the observation model from m samples per state.
func Fit(rng *rand.Rand, p Profile, m int) (*FittedZ, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if m < 1 {
		return nil, fmt.Errorf("%w: m = %d", ErrBadProfile, m)
	}
	h, err := dist.FitEmpirical(rng, p.NoIntrusion, AlertSupport, m)
	if err != nil {
		return nil, err
	}
	c, err := dist.FitEmpirical(rng, p.Intrusion, AlertSupport, m)
	if err != nil {
		return nil, err
	}
	return &FittedZ{
		Healthy:     h.Distribution(),
		Compromised: c.Distribution(),
		Samples:     m,
	}, nil
}
