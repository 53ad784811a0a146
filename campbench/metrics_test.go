package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/telemetry"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkSpec is the part of BENCHMARK.json the tests read.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// syntheticLayers runs the per-layer derivation on made-up inputs
// large enough for every percentile to be reported.
func syntheticLayers() metricSet {
	exchanges := make([]*telemetry.Exchange, 300)
	for i := range exchanges {
		exchanges[i] = &telemetry.Exchange{Spans: []telemetry.Span{
			{Name: "open", StartUnixNs: int64(i), DurNs: 1000},
			{Name: "close", StartUnixNs: int64(i) + 1000, DurNs: int64(i)},
		}}
	}
	now := time.Now()
	return layerMetrics(layerInputs{
		spans:        []span{{ID: 0, Parent: noSpan, Name: "scanner.PortScan", Start: 0, End: 1e9}},
		snap:         telemetry.NewSnapshot(),
		exchanges:    exchanges,
		before:       runtimeSample{at: now},
		after:        runtimeSample{at: now.Add(2 * time.Second), cpu: 4},
		untracedWall: 1,
	})
}

// TestMetricNamesEmitted: every metric name is well formed, every name
// BENCHMARK.json lists is emitted with its unit, and nothing emitted is
// missing from BENCHMARK.json.
func TestMetricNamesEmitted(t *testing.T) {
	spec := loadSpec(t)
	check := func(kind string, emitted metricSet, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		want := map[string]bool{}
		for _, l := range listed {
			want[l.Name] = true
			got, ok := emitted[l.Name]
			switch {
			case !ok:
				t.Errorf("%s metric %q is listed but not emitted", kind, l.Name)
			case got.Unit != l.Unit:
				t.Errorf("%s metric %q has unit %q, BENCHMARK.json says %q", kind, l.Name, got.Unit, l.Unit)
			}
		}
		for name := range emitted {
			if !nameRE.MatchString(name) {
				t.Errorf("metric name %q is malformed", name)
			}
			if !want[name] {
				t.Errorf("%s metric %q is emitted but not listed", kind, name)
			}
		}
	}
	check("per_layer", syntheticLayers(), spec.PerLayer)
	check("end_to_end", endToEnd([]float64{1}, []float64{2}, []float64{3}, []float64{4}, 1), spec.EndToEnd)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q is listed but not defined", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(spec.Workloads), len(workloads))
	}
}

func TestLayerMetricsArithmetic(t *testing.T) {
	m := syntheticLayers()
	for name, want := range map[string]float64{
		"scanner.sweep_s":      1,
		"trace.campaign_s":     2,
		"trace.cpu_s":          4,
		"trace.overhead_frac":  1,
		"uaclient.exchanges":   300,
		"uaclient.open_s":      300 * 1000 / 1e9,
		"scanner.grab_samples": 300,
	} {
		if got := m[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// explained: sweep 1 s plus the uaclient phases, over 4 CPU-s.
	phases := m["uaclient.open_s"].Value + m["uaclient.close_s"].Value
	if got, want := m["trace.explained_frac"].Value, (1+phases)/4; got != want {
		t.Errorf("explained_frac = %v, want %v", got, want)
	}
}
