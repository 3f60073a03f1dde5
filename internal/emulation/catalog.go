// Package emulation implements the TOLERANCE testbed of §VII-VIII as a
// discrete-event simulation: virtual nodes running the replica containers of
// Table 4 with the background services of Table 5, the intrusion campaigns
// of Table 6, IDS alert generation calibrated to Fig 11, node controllers
// with MLE-fitted observation models, the system controller, and the
// evaluation metrics T(A), T(R), F(R) of §III-C (Table 7 / Fig 12).
//
// Substitution note (docs/ARCHITECTURE.md, "Where we knowingly differ"):
// the physical testbed (13 servers, Docker, Snort, live CVE exploits) is
// replaced by this simulation; the controllers consume exactly the same
// information as on the testbed — priority-weighted alert counts and
// estimated observation models.
package emulation

import (
	"fmt"
	"sync"

	"tolerance/internal/dist"
	"tolerance/internal/ids"
)

// Container describes one replica image from Table 4 with its background
// services (Table 5) and alert profile.
type Container struct {
	// ID is the Table 4 replica ID (1..10).
	ID int
	// OS is the operating system of the image.
	OS string
	// Vulnerabilities lists the exploitable weaknesses (Table 4).
	Vulnerabilities []string
	// Services lists the background services (Table 5).
	Services []string
	// Profile is the container's true alert model (Fig 11).
	Profile ids.Profile
}

var (
	catalogOnce sync.Once
	catalogMem  []Container
	catalogErr  error
	catalogFP   string
)

// Catalog returns the ten replica containers of Tables 4-6. Alert profiles
// are Beta-Binomial shapes whose separation varies per container, mirroring
// the spread of empirical distributions in Fig 11 (brute-force intrusions
// are the loudest; some CVE exploits are subtler).
//
// The catalog is built once per process: profile tabulation costs thousands
// of Lgamma evaluations, which used to run on every scenario. Callers get a
// fresh slice sharing the immutable profiles, so mutating a returned entry
// cannot corrupt later calls.
func Catalog() ([]Container, error) {
	catalogOnce.Do(func() {
		catalogMem, catalogErr = buildCatalog()
		if catalogErr != nil {
			return
		}
		values := []float64{float64(len(catalogMem))}
		for _, c := range catalogMem {
			values = append(values, c.Profile.NoIntrusion.Probs()...)
			values = append(values, c.Profile.Intrusion.Probs()...)
		}
		catalogFP = dist.Fingerprint(values...)
	})
	if catalogErr != nil {
		return nil, catalogErr
	}
	return append([]Container(nil), catalogMem...), nil
}

// CatalogFingerprint returns a canonical hash over every alert profile of
// the catalog — the identity of the observation models a FitSet estimates.
// Fit caches key on it together with the sample count and fit seed.
func CatalogFingerprint() (string, error) {
	if _, err := Catalog(); err != nil {
		return "", err
	}
	return catalogFP, nil
}

func buildCatalog() ([]Container, error) {
	type spec struct {
		id       int
		os       string
		vulns    []string
		services []string
		// alert shape parameters: healthy (aH, bH), compromised (aC, bC)
		aH, bH, aC, bC float64
	}
	specs := []spec{
		{1, "ubuntu:14", []string{"FTP weak password"},
			[]string{"FTP", "SSH", "MongoDB", "HTTP", "Teamspeak"}, 0.8, 5, 3.2, 1.1},
		{2, "ubuntu:20", []string{"SSH weak password"},
			[]string{"SSH", "DNS", "HTTP"}, 0.8, 5.5, 3.0, 1.2},
		{3, "ubuntu:20", []string{"TELNET weak password"},
			[]string{"SSH", "Telnet", "HTTP"}, 0.8, 5.5, 3.0, 1.1},
		{4, "debian:10.2", []string{"CVE-2017-7494"},
			[]string{"SSH", "Samba", "NTP"}, 0.7, 6, 2.2, 1.6},
		{5, "ubuntu:20", []string{"CVE-2014-6271"},
			[]string{"SSH"}, 0.7, 6, 2.4, 1.5},
		{6, "debian:10.2", []string{"CWE-89 on DVWA"},
			[]string{"DVWA", "IRC", "SSH"}, 0.9, 5, 2.0, 1.7},
		{7, "debian:10.2", []string{"CVE-2015-3306"},
			[]string{"SSH"}, 0.7, 6, 2.3, 1.5},
		{8, "debian:10.2", []string{"CVE-2016-10033"},
			[]string{"SSH"}, 0.7, 6, 2.3, 1.6},
		{9, "debian:10.2", []string{"CVE-2010-0426", "SSH weak password"},
			[]string{"Teamspeak", "HTTP", "SSH"}, 0.9, 5, 2.8, 1.2},
		{10, "debian:10.2", []string{"CVE-2015-5602", "SSH weak password"},
			[]string{"SSH"}, 0.9, 5, 2.8, 1.3},
	}
	out := make([]Container, 0, len(specs))
	for _, s := range specs {
		profile, err := ids.NewBetaBinomialProfile(
			fmt.Sprintf("replica-%d(%s)", s.id, s.vulns[0]), s.aH, s.bH, s.aC, s.bC)
		if err != nil {
			return nil, fmt.Errorf("emulation: container %d: %w", s.id, err)
		}
		out = append(out, Container{
			ID:              s.id,
			OS:              s.os,
			Vulnerabilities: s.vulns,
			Services:        s.services,
			Profile:         profile,
		})
	}
	return out, nil
}

// BackgroundWorkload models the client population of §VIII-A: arrivals are
// Poisson(lambda = 20) and service times exponential with mean mu = 4 time
// steps; the active session count modulates baseline alert noise.
type BackgroundWorkload struct {
	// Lambda is the arrival rate per step.
	Lambda float64 `json:"lambda"`
	// MeanServiceSteps is the mean session duration.
	MeanServiceSteps float64 `json:"meanServiceSteps"`
}

// DefaultBackgroundWorkload returns the paper's parameters.
func DefaultBackgroundWorkload() BackgroundWorkload {
	return BackgroundWorkload{Lambda: 20, MeanServiceSteps: 4}
}
