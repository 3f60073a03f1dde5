package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// Manifest is the structured trailer of one fleet run: what was executed
// (suite fingerprint, shard spec, seed, scenario count), on what (worker
// count, Go and binary version, VCS state), and how it went (wall-clock,
// phase timings, the final metric snapshot). Manifests travel on side
// channels only — a file next to the checkpoint, or stderr — never stdout,
// because stdout is the byte-stable suite output and a manifest is
// partition- and machine-dependent by design (wall-clock, throughput, cache
// hits all vary across shardings that produce identical suite output).
type Manifest struct {
	// Suite is the suite name ("paper-grid", a suite-file path, ...).
	Suite string `json:"suite,omitempty"`
	// Fingerprint is the suite's deterministic content fingerprint.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Seed is the suite master seed.
	Seed int64 `json:"seed,omitempty"`
	// Shard is the "i/n" shard spec ("" for a full run).
	Shard string `json:"shard,omitempty"`
	// Scenarios is the number of scenarios this run folded.
	Scenarios int `json:"scenarios"`
	// Workers is the fleet worker-pool size used.
	Workers int `json:"workers,omitempty"`

	// GoVersion, Version and VCS describe the binary.
	GoVersion string `json:"goVersion"`
	Version   string `json:"version,omitempty"`
	VCS       *VCS   `json:"vcs,omitempty"`

	// Start, End and WallSeconds bound the run.
	Start       time.Time `json:"start"`
	End         time.Time `json:"end"`
	WallSeconds float64   `json:"wallSeconds"`

	// Telemetry is the final metric snapshot; Counters reconcile with the
	// run (fleet.scenarios_folded == Scenarios).
	Telemetry Snapshot `json:"telemetry"`
}

// VCS is the binary's version-control state, when the build embedded one.
type VCS struct {
	Revision string `json:"revision,omitempty"`
	Time     string `json:"time,omitempty"`
	Modified bool   `json:"modified,omitempty"`
}

// NewManifest seeds a manifest with build/version info and the start time.
// Fill the run fields and call Finish before writing.
func NewManifest() *Manifest {
	m := &Manifest{GoVersion: runtime.Version(), Start: time.Now()}
	if info, ok := debug.ReadBuildInfo(); ok {
		if v := info.Main.Version; v != "" && v != "(devel)" {
			m.Version = v
		}
		var vcs VCS
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				vcs.Revision = s.Value
			case "vcs.time":
				vcs.Time = s.Value
			case "vcs.modified":
				vcs.Modified = s.Value == "true"
			}
		}
		if vcs != (VCS{}) {
			m.VCS = &vcs
		}
	}
	return m
}

// Finish stamps the end time and captures the collector's final snapshot.
func (m *Manifest) Finish(c *Collector) {
	m.End = time.Now()
	m.WallSeconds = m.End.Sub(m.Start).Seconds()
	m.Telemetry = c.Snapshot()
}

// Encode writes the manifest as indented JSON.
func (m *Manifest) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteFile writes the manifest to path atomically (temp file + rename),
// or to stderr when path is "-".
func (m *Manifest) WriteFile(path string) error {
	if path == "-" {
		return m.Encode(os.Stderr)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := m.Encode(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("write manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
