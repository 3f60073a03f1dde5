package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Times are nanoseconds since the tracer's epoch. Spans of one pass share
// its root span's id in Pass.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // -1 for a pass root
	Pass   int32  `json:"pass"`
}

// tracer records spans around the benchmark's calls into the program. They
// stay in memory until the run ends. A nil *tracer is tracing switched off:
// begin and end return at once and read no clock, which is how the
// end-to-end runs execute the same pass code untraced.
type tracer struct {
	mu    sync.Mutex // the checkpoint hook runs on the engine's aggregator goroutine
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (-1 opens a new pass) and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := int32(len(t.spans))
	pass := id
	if parent >= 0 {
		pass = t.spans[parent].Pass
	}
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Pass: pass})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) duration(id int32) time.Duration {
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// total sums the durations of the pass's spans with the given name.
func (t *tracer) total(pass int32, name string) (sum time.Duration) {
	for i := range t.spans {
		if s := &t.spans[i]; s.Pass == pass && s.Name == name {
			sum += time.Duration(s.End - s.Start)
		}
	}
	return sum
}

// durations lists the durations of the pass's spans with the given name.
func (t *tracer) durations(pass int32, name string) (ds []time.Duration) {
	for i := range t.spans {
		if s := &t.spans[i]; s.Pass == pass && s.Name == name {
			ds = append(ds, time.Duration(s.End-s.Start))
		}
	}
	return ds
}

// selfTime is a span's duration minus the part of that interval its child
// spans cover (children of concurrent goroutines may overlap, so the cover
// is a union, not a sum).
func selfTime(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	covered, edge := int64(0), parent.Start
	for _, k := range kids {
		start, end := max(k.Start, edge), min(k.End, parent.End)
		if end > start {
			covered += end - start
			edge = end
		}
	}
	return time.Duration(parent.End - parent.Start - covered)
}

// layerTime is what the spans of one name add up to within a pass.
type layerTime struct {
	name        string
	calls       int
	total, self time.Duration
}

// breakdown says where a pass went: per span name, in order of first
// appearance, the number of spans, their total time and their self time.
func (t *tracer) breakdown(pass int32) []layerTime {
	kids := map[int32][]span{}
	for _, s := range t.spans {
		if s.Pass == pass && s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []layerTime
	index := map[string]int{}
	for id, s := range t.spans {
		if s.Pass != pass {
			continue
		}
		i, ok := index[s.Name]
		if !ok {
			i, index[s.Name] = len(out), len(out)
			out = append(out, layerTime{name: s.Name})
		}
		out[i].calls++
		out[i].total += time.Duration(s.End - s.Start)
		out[i].self += selfTime(s, kids[int32(id)])
	}
	return out
}

// writeFile dumps every span as JSON, for looking at a run by hand.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
