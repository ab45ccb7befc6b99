package main

import (
	"testing"
	"time"
)

func TestSelfTimeNestedSpans(t *testing.T) {
	ms := time.Millisecond
	// op 0..100 ms
	//   a 10..40, with children a1 15..20 and a2 18..30 (overlapping)
	//   b 35..60 (overlaps a by 5 ms)
	//   c 90..120 (sticks out of op by 20 ms)
	// another op root 200..210 with no children
	spans := []span{
		{Name: "op", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "a", Start: 10 * ms, End: 40 * ms, Parent: 0},
		{Name: "a1", Start: 15 * ms, End: 20 * ms, Parent: 1},
		{Name: "a2", Start: 18 * ms, End: 30 * ms, Parent: 1},
		{Name: "b", Start: 35 * ms, End: 60 * ms, Parent: 0},
		{Name: "c", Start: 90 * ms, End: 120 * ms, Parent: 0},
		{Name: "op", Start: 200 * ms, End: 210 * ms, Parent: -1, Op: 1},
	}
	want := []time.Duration{
		100*ms - (50*ms + 10*ms), // children cover 10..60 and 90..100
		30*ms - 15*ms,            // a1 ∪ a2 = 15..30
		5 * ms,
		12 * ms,
		25 * ms,
		30 * ms,
		10 * ms,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
	totals := layerTotals(spans)
	if totals["op"] != 50*ms {
		t.Errorf("op self total %v, want 50ms", totals["op"])
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.op = 7
	root := tr.begin("core")
	child := tr.begin("local.run")
	tr.end(child)
	second := tr.begin("check.verify")
	tr.end(second)
	tr.end(root)
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	for i, s := range tr.spans {
		if s.Op != 7 {
			t.Errorf("span %d op %d, want 7", i, s.Op)
		}
	}
	if tr.spans[0].Parent != -1 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != 0 {
		t.Errorf("parents %d %d %d, want -1 0 0", tr.spans[0].Parent, tr.spans[1].Parent, tr.spans[2].Parent)
	}
	if len(tr.stack) != 0 {
		t.Errorf("stack not empty after closing every span: %v", tr.stack)
	}

	// A nil tracer records nothing and does not panic.
	var none *tracer
	none.end(none.begin("x"))
}
