package emulation

import (
	"fmt"
	"math/rand"

	"tolerance/internal/dist"
	"tolerance/internal/ids"
)

// Stream tags for splitStream: every derived rng stream of a scenario has
// its own tag, so the draws of one phase can never shift another phase's
// stream.
const (
	fitStreamTag      = 0x0f17
	workloadStreamTag = 0x3017
)

// splitStream derives a decorrelated rng seed from a base seed and a
// stream tag with the shared SplitMix64 finalizer (the same mix the fleet
// engine uses for per-scenario seeds).
func splitStream(seed int64, tag uint64) int64 {
	return int64(dist.SplitMix64(uint64(seed)*dist.GoldenGamma + tag))
}

// FitStreamSeed returns the seed of the dedicated Ẑ-fitting rng stream
// derived from a scenario (or suite) seed. The fit phase draws from this
// stream only, so simulation draws do not depend on how many samples the
// fit consumed. Fleet engines derive one fit seed per suite from the suite
// master seed, which lets every scenario of a grid share a single offline
// fit — the paper's one-time training phase (§VIII-A).
func FitStreamSeed(seed int64) int64 { return splitStream(seed, fitStreamTag) }

// WorkloadStreamSeed seeds the background-workload stream (arrivals and
// departures), keeping the session process off the node simulation stream.
func WorkloadStreamSeed(seed int64) int64 { return splitStream(seed, workloadStreamTag) }

// FitSet is the offline training artifact of §VIII-A: the MLE-fitted
// observation models Ẑ for every catalog container, together with dense
// per-observation likelihood tables so the Appendix A belief recursion is
// two slice loads instead of two distribution lookups. A FitSet is
// immutable after construction and safe to share across concurrent
// scenario runs; fleet engines fit one per suite and reuse it for every
// scenario (the fit is a preprocessing step, so sharing it across a grid
// changes no controller-visible semantics).
type FitSet struct {
	catalog []Container
	fits    []*ids.FittedZ
	// zhFlat[i*support+o] = Ẑ_i(o | H) and zcFlat[i*support+o] = Ẑ_i(o | C)
	// for container i: one dense slab each, so the runner's per-node
	// likelihood lookup is a base offset plus the observation, with no
	// per-node slice header chasing.
	zhFlat, zcFlat []float64
	// support is the per-container row length (the alert support).
	support int
}

// NewFitSet fits Ẑ for every catalog container with m samples per state,
// drawing from the dedicated fit stream seeded by seed. Containers are
// fitted in catalog order from one rng, so a FitSet is a pure function of
// (catalog, m, seed).
func NewFitSet(m int, seed int64) (*FitSet, error) {
	catalog, err := Catalog()
	if err != nil {
		return nil, err
	}
	fs := &FitSet{
		catalog: catalog,
		fits:    make([]*ids.FittedZ, len(catalog)),
		zhFlat:  make([]float64, len(catalog)*ids.AlertSupport),
		zcFlat:  make([]float64, len(catalog)*ids.AlertSupport),
		support: ids.AlertSupport,
	}
	rng := rand.New(rand.NewSource(seed))
	for i, c := range catalog {
		fit, err := ids.Fit(rng, c.Profile, m)
		if err != nil {
			return nil, fmt.Errorf("emulation: fit container %d: %w", c.ID, err)
		}
		fs.fits[i] = fit
		copy(fs.zhFlat[i*fs.support:], fit.Healthy.Probs())
		copy(fs.zcFlat[i*fs.support:], fit.Compromised.Probs())
	}
	return fs, nil
}

// Len returns the number of fitted containers.
func (f *FitSet) Len() int { return len(f.catalog) }

// Container returns the i-th catalog container.
func (f *FitSet) Container(i int) Container { return f.catalog[i] }

// Fitted returns the i-th container's fitted observation model.
//
//tolerance:testonly seam: tests build a node controller's model from a container's fit
func (f *FitSet) Fitted(i int) *ids.FittedZ { return f.fits[i] }
