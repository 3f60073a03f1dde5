package tolerance

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// TestWithFitSamples: the option runs the suite exactly as a suite file
// with that Ẑ budget would, and a different budget changes the result.
func TestWithFitSamples(t *testing.T) {
	ctx := context.Background()
	const n = 150
	got, err := RunSuite(ctx, SuiteByName("smoke"), WithFitSamples(n))
	if err != nil {
		t.Fatal(err)
	}
	data, err := SuiteJSON(SuiteByName("smoke"))
	if err != nil {
		t.Fatal(err)
	}
	var suite map[string]any
	if err := json.Unmarshal(data, &suite); err != nil {
		t.Fatal(err)
	}
	if suite["fitSamples"] == float64(n) {
		t.Fatalf("smoke already fits with %d samples", n)
	}
	suite["fitSamples"] = n
	if data, err = json.Marshal(suite); err != nil {
		t.Fatal(err)
	}
	want, err := RunSuite(ctx, SuiteFromJSON(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("WithFitSamples(%d) = %+v, the suite with fitSamples %d = %+v", n, got, n, want)
	}
	def, err := RunSuite(ctx, SuiteByName("smoke"))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(got, def) {
		t.Errorf("WithFitSamples(%d) left the result at the default budget's", n)
	}
}

// TestWithProgress: the callback fires once per folded scenario, with done
// counting up by one to total.
func TestWithProgress(t *testing.T) {
	var calls [][2]int
	report, err := RunSuite(context.Background(), SuiteByName("smoke"), WithWorkers(2),
		WithProgress(func(done, total int) { calls = append(calls, [2]int{done, total}) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != report.Scenarios {
		t.Fatalf("%d progress calls for %d scenarios", len(calls), report.Scenarios)
	}
	for i, c := range calls {
		if c != [2]int{i + 1, report.Scenarios} {
			t.Fatalf("call %d reported (done %d, total %d), want (%d, %d)", i, c[0], c[1], i+1, report.Scenarios)
		}
	}
}
