package main

import (
	"encoding/json"
	"io"
	"slices"
	"sync"
	"time"
)

// span is one timed call the benchmark made: a public call into the
// program, a layer replay, or a group of either. Parent is the id of
// the enclosing span, -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, so untraced runs pay one pointer check per
// call. It is safe for concurrent use: fabric workers open spans from
// their own goroutines.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// noSpan is the id begin returns on a nil recorder and the parent of a
// root span.
const noSpan = -1

// begin opens a span named name under parent and returns its id.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return noSpan
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == noSpan {
		return
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// do records fn as one span under parent.
func (r *recorder) do(name string, parent int, fn func()) {
	id := r.begin(name, parent)
	fn()
	r.end(id)
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// writeNDJSON writes one span per line.
func (r *recorder) writeNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns each span's self time in nanoseconds, indexed like
// spans: its duration minus the part of its interval that its direct
// children cover. Overlapping children (concurrent workers) count once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of intervals, clipped to
// [lo, hi].
func covered(intervals [][2]int64, lo, hi int64) int64 {
	if len(intervals) == 0 {
		return 0
	}
	iv := slices.Clone(intervals)
	slices.SortFunc(iv, func(a, b [2]int64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	flush := func() {
		if open {
			total += max(0, min(curHi, hi)-max(curLo, lo))
		}
	}
	for _, in := range iv {
		if open && in[0] <= curHi {
			curHi = max(curHi, in[1])
			continue
		}
		flush()
		curLo, curHi, open = in[0], in[1], true
	}
	flush()
	return total
}

// selfSeconds sums the self time of every span named name.
func selfSeconds(spans []span, self []int64, name string) float64 {
	var ns int64
	for i, s := range spans {
		if s.Name == name {
			ns += self[i]
		}
	}
	return float64(ns) / 1e9
}
