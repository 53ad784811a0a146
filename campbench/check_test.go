package main

import (
	"maps"
	"testing"

	"repro/internal/dataset"
	"repro/internal/telemetry"
)

// TestCheckDigest: a seed golden.json lists must match its digest; a
// seed it does not list is not checked.
func TestCheckDigest(t *testing.T) {
	want := goldenDigests["2020"]
	if want == "" {
		t.Fatal("golden.json has no digest for seed 2020")
	}
	if err := checkDigest(2020, want); err != nil {
		t.Errorf("golden digest rejected: %v", err)
	}
	if err := checkDigest(2020, "aa"); err == nil {
		t.Error("wrong digest accepted")
	}
	if err := checkDigest(-1, "aa"); err != nil {
		t.Errorf("seed outside golden.json failed: %v", err)
	}
}

// TestCompareCounts: equal exact counts pass; any difference in one of
// them fails, and counts outside the exact set are ignored.
func TestCompareCounts(t *testing.T) {
	snap := telemetry.NewSnapshot()
	ref := countsOf(snap, 15036)
	if len(ref) != len(exactCounts) {
		t.Fatalf("countsOf returned %d counts, exactCounts names %d", len(ref), len(exactCounts))
	}
	if err := compareCounts(maps.Clone(ref), ref); err != nil {
		t.Errorf("equal counts rejected: %v", err)
	}
	for _, name := range exactCounts {
		got := maps.Clone(ref)
		got[name]++
		if err := compareCounts(got, ref); err == nil {
			t.Errorf("a different %s was accepted", name)
		}
	}
	got := maps.Clone(ref)
	got["uarsa.decrypt_misses"] = 1
	if err := compareCounts(got, ref); err != nil {
		t.Errorf("a count outside the exact set was compared: %v", err)
	}
}

// TestDigestIgnoresWallClock: Duration and Bytes do not enter the
// digest; content does.
func TestDigestIgnoresWallClock(t *testing.T) {
	a := []*dataset.HostRecord{{Wave: 1, Address: "10.0.0.1:4840", Duration: 5, Bytes: 7}}
	b := []*dataset.HostRecord{{Wave: 1, Address: "10.0.0.1:4840", Duration: 9, Bytes: 1}}
	c := []*dataset.HostRecord{{Wave: 1, Address: "10.0.0.2:4840"}}
	da, err := digest(a)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := digest(b)
	dc, _ := digest(c)
	if da != db {
		t.Error("digest depends on Duration or Bytes")
	}
	if da == dc {
		t.Error("digest ignores the address")
	}
	if a[0].Duration != 5 || a[0].Bytes != 7 {
		t.Error("digest modified its input")
	}
}
