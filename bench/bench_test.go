package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func tinyEnv(t *testing.T) *env {
	return &env{ctx: context.Background(), sc: tinyScale(), seed: 3, scratch: t.TempDir()}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts the report holds exactly the named metrics, each
// finite and with its declared unit.
func checkMetrics(t *testing.T, what string, rep report, defs []metricDef) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s: correct=%v failed=%d attempted=%d", what, rep.Correct, rep.Failed, rep.Attempted)
	}
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d declared", what, len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rep.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is missing", what, d.name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", what, d.name, m.Value)
		case m.Unit != d.unit:
			t.Errorf("%s: metric %s has unit %q, declared %q", what, d.name, m.Unit, d.unit)
		case !metricName.MatchString(d.name):
			t.Errorf("%s: metric name %q is outside [A-Za-z0-9_.-]", what, d.name)
		case d.bound > 0 && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", what, d.name, m.Value)
		}
	}
}

// TestTinyScaleReportsEveryMetric is the smoke: all five workloads end to
// end and the traced run, at the tiny scale, in a few seconds.
func TestTinyScaleReportsEveryMetric(t *testing.T) {
	e := tinyEnv(t)
	for _, name := range workloadNames {
		w, err := e.workload(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := runEndToEnd(e, w, 0, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkMetrics(t, name, rep, endToEndMetrics)
	}
	spans := filepath.Join(t.TempDir(), "spans.json")
	rep, err := runTraced(e, []string{"grid-durable"}, spans, io.Discard)
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	checkMetrics(t, "traced run", rep, perLayerMetrics)
	var written []span
	if data, err := os.ReadFile(spans); err != nil {
		t.Error(err)
	} else if err := json.Unmarshal(data, &written); err != nil || len(written) == 0 {
		t.Errorf("span file: %d spans, %v", len(written), err)
	}
}

// TestSecondsOnlyCapsTheFrozenPassCount: a run makes its workload's frozen
// number of timed passes; -seconds running out drops the remaining ones, but
// never below minTimedPasses.
func TestSecondsOnlyCapsTheFrozenPassCount(t *testing.T) {
	e := tinyEnv(t)
	e.sc.passes = map[string]int{"grid-deep": minTimedPasses + 2}
	w, err := e.workload("grid-deep")
	if err != nil {
		t.Fatal(err)
	}
	for seconds, want := range map[int]int{3600: minTimedPasses + 2, 0: minTimedPasses} {
		rep, err := runEndToEnd(e, w, seconds, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		// grid-deep attempts one output check per pass, the warm-up included.
		if got := rep.Attempted - 1; got != want {
			t.Errorf("-seconds %d: %d timed passes, want %d", seconds, got, want)
		}
	}
}

// TestOutputCheckCatchesCorruptedRecord damages one record of a shard file a
// durable pass has just written and expects the pass's output check to fail:
// once so that the checkpoint reader drops the record, once so that it
// accepts a wrong value and only the comparison with the plain run can tell.
func TestOutputCheckCatchesCorruptedRecord(t *testing.T) {
	crc := regexp.MustCompile(`,"crc":\d+`)
	for name, damage := range map[string]func(line []byte) []byte{
		"checksum mismatch": func(line []byte) []byte {
			return crc.ReplaceAll(line, []byte(`,"crc":1`))
		},
		"wrong value behind no checksum": func(line []byte) []byte {
			line = crc.ReplaceAll(line, nil) // legacy lines carry none and are read unverified
			return regexp.MustCompile(`"AvgNodes":[^,]+`).ReplaceAll(line, []byte(`"AvgNodes":0.4242`))
		},
	} {
		t.Run(name, func(t *testing.T) {
			e := tinyEnv(t)
			w, err := e.workload("grid-durable")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.pass(nil); err != nil {
				t.Fatal(err)
			}
			path := shardPaths(filepath.Join(e.scratch, "durable"))[0]
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(data, []byte("\n"))
			damaged := damage(lines[1]) // line 0 is the header
			if bytes.Equal(damaged, lines[1]) {
				t.Fatalf("the damage left the record as it was: %s", lines[1])
			}
			lines[1] = damaged
			if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := w.after(); err == nil {
				t.Fatal("the output check accepted a shard file with a damaged record")
			} else {
				t.Log("caught:", err)
			}
		})
	}
}

// TestBreakdownSelfTime pins the tracer's definition of self time: the span
// minus the union of its children, clipped to the span.
func TestBreakdownSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "pass", Start: 100, End: 200, Parent: -1},
		{Name: "a", Start: 110, End: 150, Parent: 0},
		{Name: "a", Start: 140, End: 160, Parent: 0}, // overlaps the first by 10
		{Name: "late", Start: 190, End: 230, Parent: 0},
		{Name: "leaf", Start: 120, End: 130, Parent: 1},
		{Name: "other pass", Start: 300, End: 400, Parent: -1, Pass: 5},
	}
	want := []layerTime{
		{name: "pass", calls: 1, total: 100, self: 100 - 50 - 10},
		{name: "a", calls: 2, total: 60, self: 30 + 20},
		{name: "late", calls: 1, total: 40, self: 40},
		{name: "leaf", calls: 1, total: 10, self: 10},
	}
	got := tr.breakdown(0)
	if len(got) != len(want) {
		t.Fatalf("breakdown %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("breakdown[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestManifestMatchesTheProgram keeps BENCHMARK.json and the lists the
// program reports from saying the same thing.
func TestManifestMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var manifest struct {
		Command    []string
		Paths      []string
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
		RunSeconds int     `json:"run_seconds"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(manifest.Command, " "); got != "go run ./bench" {
		t.Errorf("command %q", got)
	}
	if len(manifest.Paths) != 1 || manifest.Paths[0] != "bench" {
		t.Errorf("paths %v", manifest.Paths)
	}
	if len(manifest.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(manifest.Workloads), len(workloadNames))
	}
	for i, w := range manifest.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v, want %s with a reason of at most 200 characters", i, w, workloadNames[i])
		}
	}
	compare := func(what string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in the program", what, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: manifest %+v, program %+v", what, i, g, d)
			}
		}
	}
	compare("end_to_end", manifest.EndToEnd, endToEndMetrics)
	compare("per_layer", manifest.PerLayer, perLayerMetrics)
}
