// Package chaos is the testbed's deterministic fault-injection plane: a
// seeded FaultPlan that schedules frame drops, duplicates, delays,
// reorders, connection resets, asymmetric partitions with heal times,
// replica stalls, and torn or corrupted checkpoint writes — then certifies
// the whole schedule with an FNV-1a digest, exactly like the attacker
// schedules in internal/emulation.
//
// The plan is wired in as decorators, never as changes to the code under
// test: Plan.WrapEndpoint wraps any transport.Endpoint (the fleet
// coordinator/worker wire and the cluster backend's replica links both
// qualify), and Plan.WrapCheckpointSink wraps the checkpoint writer's
// io.Writer. The determinism contract this plane exists to attack —
// records are a pure function of (suite, index), first write wins — is
// also what makes the acceptance bar meaningful: a chaos run's stdout must
// be byte-identical to a fault-free run's, because every injected fault is
// something the retry/lease/CRC machinery must absorb without changing a
// single record.
//
// Schedule purity. Every per-frame decision (drop, duplicate, delay,
// reorder, reset) is a pure function of (chaos seed, directed link, frame
// ordinal on that link): decision words come from the SplitMix64 stream
//
//	word_k(link, n) = SplitMix64^k(linkBase(link) + n·γ)
//
// with linkBase itself a SplitMix64 hash of the seed and the link name. So
// while wall-clock interleaving decides which frame gets which ordinal,
// the multiset of decisions along any link is fixed by the seed alone, and
// two runs with the same seed and traffic pattern inject the same faults.
// Partition and stall windows are the one wall-clock element: their
// *membership* (which endpoints go dark) is pure in the seed, and only the
// window's position in real time is not — matching how §VIII-A's NETEM
// impairments are configured by schedule but applied by the kernel clock.
package chaos

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tolerance/internal/dist"
	"tolerance/internal/telemetry"
)

// Partition is one scheduled network partition window. StartMS is measured
// from plan arming (the first wrapped Send); after DurationMS the
// partition heals on its own. Fraction of the endpoints (selected by a
// seeded hash, so membership is a pure function of the plan seed) go dark:
// symmetric partitions drop every frame touching a dark endpoint, while
// asymmetric ones drop only frames *sent by* a dark endpoint — its inbound
// traffic still flows, the classic half-open failure.
type Partition struct {
	StartMS    int     `json:"start_ms"`
	DurationMS int     `json:"duration_ms"`
	Fraction   float64 `json:"fraction"`
	Symmetric  bool    `json:"symmetric"`
}

// Stall is one scheduled replica stall window: the selected endpoints stop
// sending (their outbound frames are swallowed) for the duration, emulating
// a wedged process that still holds its sockets.
type Stall struct {
	StartMS    int     `json:"start_ms"`
	DurationMS int     `json:"duration_ms"`
	Fraction   float64 `json:"fraction"`
}

// Profile declares what a chaos plan injects. All probabilities are per
// frame in [0, 1]; Every-style fields are frame or record ordinals (0
// disables). A Profile combined with a seed fully determines the FaultPlan.
type Profile struct {
	Name string `json:"name"`

	// Drop is the per-frame probability of silent loss.
	Drop float64 `json:"drop,omitempty"`
	// Dup is the per-frame probability the frame is delivered twice.
	Dup float64 `json:"dup,omitempty"`
	// Delay is the per-frame probability the frame is held for up to
	// DelayMS milliseconds before delivery.
	Delay float64 `json:"delay,omitempty"`
	// DelayMS bounds the injected hold time per delayed frame.
	DelayMS int `json:"delay_ms,omitempty"`
	// Reorder is the per-frame probability the frame is deferred just long
	// enough (about a millisecond) to overtake its successors on the link.
	Reorder float64 `json:"reorder,omitempty"`
	// ResetEvery injects a connection-reset error on every n-th frame of
	// each directed link: Send returns ErrReset and the frame is not
	// delivered, exercising the caller's redial/retry path.
	ResetEvery int `json:"reset_every,omitempty"`

	// Partitions are the scheduled partition windows.
	Partitions []Partition `json:"partitions,omitempty"`
	// Stalls are the scheduled replica-stall windows.
	Stalls []Stall `json:"stalls,omitempty"`

	// CorruptEvery flips one byte in every n-th checkpoint record write.
	CorruptEvery int `json:"corrupt_every,omitempty"`
	// TearAt tears the n-th checkpoint record write in half: only the first
	// half reaches the file while the writer is told the whole line landed —
	// the signature of a kill or power cut mid-write.
	TearAt int `json:"tear_at,omitempty"`
}

// catalog is the named profile registry backing -chaos-profile.
var catalog = map[string]Profile{
	"lossy": {
		Name: "lossy",
		Drop: 0.05, Dup: 0.02, Delay: 0.05, DelayMS: 5, Reorder: 0.05,
	},
	"lossy-partition": {
		Name: "lossy-partition",
		Drop: 0.05, Dup: 0.05, Delay: 0.05, DelayMS: 5, Reorder: 0.05,
		Partitions: []Partition{{StartMS: 1500, DurationMS: 2000, Fraction: 0.5}},
		TearAt:     7,
	},
	"resets": {
		Name: "resets",
		Drop: 0.02, ResetEvery: 40,
	},
	"stalls": {
		Name:   "stalls",
		Drop:   0.02,
		Stalls: []Stall{{StartMS: 1000, DurationMS: 1500, Fraction: 0.34}},
	},
	"flaky-disk": {
		Name:         "flaky-disk",
		CorruptEvery: 5, TearAt: 3,
	},
}

// Profiles lists the catalog names in sorted order — the valid values for
// -chaos-profile.
func Profiles() []string {
	names := make([]string, 0, len(catalog))
	for n := range catalog {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LookupProfile resolves a catalog profile by name.
func LookupProfile(name string) (Profile, bool) {
	p, ok := catalog[name]
	return p, ok
}

// ErrReset is the injected connection-reset error returned by a wrapped
// endpoint's Send on a scheduled reset frame.
var ErrReset = fmt.Errorf("chaos: injected connection reset")

// planCounters are the plan's own atomic tallies; Instrument mirrors them
// onto a telemetry collector via CounterFunc, so the plan stays usable
// (and countable) with no collector attached.
type planCounters struct {
	frames      atomic.Int64 // Send calls seen by wrapped endpoints
	passed      atomic.Int64 // delivered immediately, unharmed
	dropped     atomic.Int64 // random loss
	duplicated  atomic.Int64 // extra copies delivered (not counted in frames)
	delayed     atomic.Int64 // held for a scheduled delay
	reordered   atomic.Int64 // deferred past successors
	resets      atomic.Int64 // Send calls failed with ErrReset
	partitioned atomic.Int64 // swallowed by a partition window
	stalled     atomic.Int64 // swallowed by a stall window
	ckptCorrupt atomic.Int64 // checkpoint record writes corrupted
	ckptTorn    atomic.Int64 // checkpoint record writes torn
}

// linkState is the per-directed-link decision stream: a pure-function base
// plus the frame ordinal.
type linkState struct {
	base uint64
	n    atomic.Uint64
}

// Plan is an armed fault plan: a Profile bound to a seed, with the live
// per-link decision streams and fault tallies. Construct with NewPlan; a
// nil *Plan is a valid no-op everywhere (wrappers return their argument
// unchanged), so callers thread it unconditionally.
type Plan struct {
	Profile Profile
	Seed    int64

	now   func() time.Time
	epoch time.Time

	mu    sync.Mutex
	links map[string]*linkState

	ckptN atomic.Uint64
	c     planCounters
}

// NewPlan arms a fault plan for the profile under the seed. The partition
// and stall clocks start now.
func NewPlan(profile Profile, seed int64) *Plan {
	p := &Plan{
		Profile: profile,
		Seed:    seed,
		now:     time.Now,
		links:   make(map[string]*linkState),
	}
	p.epoch = p.now()
	return p
}

// NewPlanByName arms a catalog profile; it errors on an unknown name,
// listing the catalog.
func NewPlanByName(name string, seed int64) (*Plan, error) {
	prof, ok := LookupProfile(name)
	if !ok {
		return nil, fmt.Errorf("chaos: unknown profile %q (have %v)", name, Profiles())
	}
	return NewPlan(prof, seed), nil
}

// SetClock replaces the wall clock driving partition and stall windows and
// resets their epoch — test hook for exercising window logic without
// sleeping.
func (p *Plan) SetClock(now func() time.Time) {
	p.now = now
	p.epoch = now()
}

// Digest is the FNV-1a/64 certificate of the full fault schedule: every
// per-frame decision stream and every window is a pure function of what it
// hashes (the canonical profile JSON and the seed), so two processes
// agreeing on the digest are provably injecting from the same plan.
func (p *Plan) Digest() uint64 {
	doc, err := json.Marshal(struct {
		Profile Profile `json:"profile"`
		Seed    int64   `json:"seed"`
	}{p.Profile, p.Seed})
	if err != nil {
		return 0
	}
	h := fnv.New64a()
	h.Write(doc)
	return h.Sum64()
}

// Digest32 folds the schedule digest to 32 bits for exact representation
// in float64 telemetry gauges and JSON manifests (a raw uint64 would lose
// precision past 2^53).
func (p *Plan) Digest32() uint32 {
	d := p.Digest()
	return uint32(d>>32) ^ uint32(d)
}

// Describe is the one-line plan summary for logs and -chaos-describe.
func (p *Plan) Describe() string {
	return fmt.Sprintf("chaos: profile %s seed %d digest %08x", p.Profile.Name, p.Seed, p.Digest32())
}

// The chaos.* metric names. The frame counters obey the reconciliation
// identity
//
//	chaos.frames = chaos.frames_passed + chaos.frames_dropped
//	             + chaos.frames_delayed + chaos.frames_reordered
//	             + chaos.frames_partitioned + chaos.frames_stalled
//	             + chaos.resets
//
// (duplicates are extra deliveries on top, counted separately), which the
// chaos-matrix CI job asserts against the manifest.
const (
	MetricFrames        = "chaos.frames"
	MetricFramesPassed  = "chaos.frames_passed"
	MetricFramesDropped = "chaos.frames_dropped"
	MetricFramesDup     = "chaos.frames_duplicated"
	MetricFramesDelayed = "chaos.frames_delayed"
	MetricFramesReorder = "chaos.frames_reordered"
	MetricResets        = "chaos.resets"
	MetricFramesPart    = "chaos.frames_partitioned"
	MetricFramesStalled = "chaos.frames_stalled"
	MetricCkptCorrupted = "chaos.ckpt_corrupted"
	MetricCkptTorn      = "chaos.ckpt_torn"
	MetricPlanDigest    = "chaos.plan_digest"
)

// Instrument mirrors the plan's tallies onto the collector as chaos.*
// counters plus the chaos.plan_digest gauge. Pure observer, like every
// other Instrument in this repo: the injected faults are identical with or
// without it.
func (p *Plan) Instrument(col *telemetry.Collector) {
	if p == nil {
		return
	}
	col.CounterFunc(MetricFrames, p.c.frames.Load)
	col.CounterFunc(MetricFramesPassed, p.c.passed.Load)
	col.CounterFunc(MetricFramesDropped, p.c.dropped.Load)
	col.CounterFunc(MetricFramesDup, p.c.duplicated.Load)
	col.CounterFunc(MetricFramesDelayed, p.c.delayed.Load)
	col.CounterFunc(MetricFramesReorder, p.c.reordered.Load)
	col.CounterFunc(MetricResets, p.c.resets.Load)
	col.CounterFunc(MetricFramesPart, p.c.partitioned.Load)
	col.CounterFunc(MetricFramesStalled, p.c.stalled.Load)
	col.CounterFunc(MetricCkptCorrupted, p.c.ckptCorrupt.Load)
	col.CounterFunc(MetricCkptTorn, p.c.ckptTorn.Load)
	col.Gauge(MetricPlanDigest).Set(float64(p.Digest32()))
}

// fnv1a hashes a string with FNV-1a/64.
func fnv1a(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// link returns (creating on first use) the decision stream for the
// directed link from→to.
func (p *Plan) link(from, to string) *linkState {
	key := from + "\x00" + to
	p.mu.Lock()
	defer p.mu.Unlock()
	if l, ok := p.links[key]; ok {
		return l
	}
	l := &linkState{base: dist.SplitMix64(uint64(p.Seed)*dist.GoldenGamma ^ fnv1a(key))}
	p.links[key] = l
	return l
}

// unit converts a SplitMix64 word to a uniform in [0, 1).
func unit(w uint64) float64 { return float64(w>>11) / (1 << 53) }

// dark reports whether the seeded hash places addr inside the window's
// selected fraction. kind and idx domain-separate the draw so each window
// selects independently.
func (p *Plan) dark(kind string, idx int, addr string, fraction float64) bool {
	if fraction <= 0 {
		return false
	}
	if fraction >= 1 {
		return true
	}
	w := dist.SplitMix64(uint64(p.Seed)*dist.GoldenGamma ^ fnv1a(fmt.Sprintf("%s\x00%d\x00%s", kind, idx, addr)))
	return unit(w) < fraction
}

// windowActive reports whether the window [startMS, startMS+durationMS) is
// open at the plan's current clock.
func (p *Plan) windowActive(startMS, durationMS int) bool {
	el := p.now().Sub(p.epoch)
	start := time.Duration(startMS) * time.Millisecond
	return el >= start && el < start+time.Duration(durationMS)*time.Millisecond
}

// partitioned reports whether a frame from→to is swallowed by an active
// partition window.
func (p *Plan) partitioned(from, to string) bool {
	for i, part := range p.Profile.Partitions {
		if !p.windowActive(part.StartMS, part.DurationMS) {
			continue
		}
		if p.dark("partition", i, from, part.Fraction) {
			return true // sender is dark: outbound blocked (the asymmetric half)
		}
		if part.Symmetric && p.dark("partition", i, to, part.Fraction) {
			return true
		}
	}
	return false
}

// stalled reports whether the sender is inside an active stall window.
func (p *Plan) stalled(from string) bool {
	for i, st := range p.Profile.Stalls {
		if p.windowActive(st.StartMS, st.DurationMS) && p.dark("stall", i, from, st.Fraction) {
			return true
		}
	}
	return false
}
