package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestMain lets the test binary serve as a setup_s child, as the benchmark
// binary does, so the smoke runs below can measure set-up.
func TestMain(m *testing.M) {
	if os.Getenv(setupChildEnv) != "" {
		os.Exit(setupChild(cpuTime(), os.Args[1:]))
	}
	os.Exit(m.Run())
}

type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics asserts that the spec's metrics, the benchmark's table and a
// run's output agree on every name and unit.
func checkMetrics(t *testing.T, spec []struct{ Name, Unit string }, table []metricDef, got map[string]metricOut) {
	t.Helper()
	if len(spec) != len(table) || len(got) != len(table) {
		t.Errorf("BENCHMARK.json lists %d metrics, the table %d, the run printed %d", len(spec), len(table), len(got))
	}
	want := map[string]string{}
	for _, d := range table {
		want[d.name] = d.unit
	}
	for _, m := range spec {
		if want[m.Name] != m.Unit {
			t.Errorf("BENCHMARK.json metric %s [%s]: table has unit %q", m.Name, m.Unit, want[m.Name])
		}
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("run output lacks %s [%s]: got %+v", m.Name, m.Unit, g)
		}
	}
}

// A one-second run of every workload in BENCHMARK.json verifies its products
// and prints every end-to-end metric. One second is too short for a valid
// p90, so the invalid reasons are expected and ignored.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, err := workloadByName(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		res, _, _, err := runE2E(w, options{workload: w.name, seed: 1, seconds: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 3 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		checkMetrics(t, spec.EndToEnd, e2eMetrics, res.Metrics)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Value)
			}
		}
	}
}

// A short traced run writes a trace that encoding/json parses, holding op,
// probe and per-rank phase spans; the probe spans are named after the
// per-layer metrics they measure.
func TestTraceFile(t *testing.T) {
	spec := loadSpec(t)
	path := filepath.Join(t.TempDir(), "trace.json")
	w, err := workloadByName("ft_toom_clean")
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := runLayers(w, options{workload: w.name, seed: 1, seconds: 1, traceOut: path})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run: %d of %d failed", res.Failed, res.Attempted)
	}
	checkMetrics(t, spec.PerLayer, layerMetrics, res.Metrics)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct{ TraceEvents []event }
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	cats := map[string]int{}
	probeSpans := map[string]bool{}
	for _, e := range tr.TraceEvents {
		cats[e.Cat]++
		if e.Cat == "probe" {
			probeSpans[e.Name] = true
		}
	}
	for _, c := range []string{"op", "probe", "phase"} {
		if cats[c] == 0 {
			t.Errorf("trace has no %q spans (categories %v)", c, cats)
		}
	}
	probes, err := newProbes(1)
	if err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, p := range probes {
		want = append(want, p.name)
		if _, ok := res.Metrics[p.name]; !ok {
			t.Errorf("probe %s names no per-layer metric", p.name)
		}
	}
	for name := range probeSpans {
		got = append(got, name)
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("probe spans %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("probe spans %v, want %v", got, want)
		}
	}
}
