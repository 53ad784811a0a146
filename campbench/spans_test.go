package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSelfTimes checks the self-time arithmetic on a synthetic tree:
// overlapping children count once, a child running past its parent is
// clipped, and a grandchild is charged to its own parent only.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noSpan, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120},
		{ID: 4, Parent: 1, Name: "leaf", Start: 15, End: 25},
		{ID: 5, Parent: 1, Name: "leaf", Start: 20, End: 30},
	}
	// root: 100 minus children covering [10,60] and [90,100].
	// a: 30 minus leaves covering [15,30].
	want := []int64{40, 15, 30, 30, 10, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s #%d) = %d, want %d", spans[i].Name, i, got[i], want[i])
		}
	}
	if s := selfSeconds(spans, got, "leaf"); s != 20e-9 {
		t.Errorf("selfSeconds(leaf) = %v, want 2e-8", s)
	}
}

func TestCoveredDisjointAndNested(t *testing.T) {
	iv := [][2]int64{{50, 60}, {0, 10}, {5, 8}, {20, 30}}
	if got := covered(iv, 0, 100); got != 30 {
		t.Errorf("covered = %d, want 30", got)
	}
	if got := covered(iv, 25, 55); got != 10 {
		t.Errorf("covered clipped = %d, want 10", got)
	}
	if got := covered(nil, 0, 100); got != 0 {
		t.Errorf("covered(nil) = %d, want 0", got)
	}
}

func TestRecorderNested(t *testing.T) {
	var nilRec *recorder
	if id := nilRec.begin("x", noSpan); id != noSpan {
		t.Fatalf("nil recorder begin = %d, want %d", id, noSpan)
	}
	nilRec.end(noSpan)
	nilRec.do("x", noSpan, func() {})

	rec := &recorder{}
	root := rec.begin("root", noSpan)
	rec.do("child", root, func() {})
	rec.end(root)
	spans := rec.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
	var buf bytes.Buffer
	if err := rec.writeNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 2 {
		t.Errorf("NDJSON has %d lines, want 2", n)
	}
}
