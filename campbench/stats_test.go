package main

import "testing"

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

// TestPercentileRefusesThinTail: a percentile is refused when fewer
// than ten samples lie beyond it.
func TestPercentileRefusesThinTail(t *testing.T) {
	if _, err := percentile(ramp(100), 95); err == nil {
		t.Error("p95 of 100 samples (5 beyond) was not refused")
	}
	if _, err := percentile(ramp(199), 95); err == nil {
		t.Error("p95 of 199 samples (9 beyond) was not refused")
	}
	got, err := percentile(ramp(200), 95)
	if err != nil || got != 190 {
		t.Errorf("p95 of 200 samples = %v, %v; want 190", got, err)
	}
	// The delta workload's grab count: about 370 samples beyond p95.
	if _, err := percentile(ramp(7466), 95); err != nil {
		t.Errorf("p95 of 7466 samples refused: %v", err)
	}
	if _, err := percentile(ramp(19), 50); err == nil {
		t.Error("p50 of 19 samples (9 beyond) was not refused")
	}
	if _, err := percentile(ramp(500), 100); err == nil {
		t.Error("p100 was not refused")
	}
}
