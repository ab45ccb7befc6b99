package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"
)

func samples(ms ...float64) []sample {
	s := make([]sample, len(ms))
	for i, v := range ms {
		s[i] = sample{ms: v, class: "a"}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].ms < s[j].ms })
	return s
}

func ramp(n int) []sample {
	ms := make([]float64, n)
	for i := range ms {
		ms[i] = float64(i + 1)
	}
	return samples(ms...)
}

func TestPercentileTailRule(t *testing.T) {
	for _, tc := range []struct {
		n     int
		p     float64
		value float64
		tail  int
		ok    bool
	}{
		{100, 0.9, 90, 10, true}, // exactly ten beyond
		{99, 0.9, 90, 9, false},  // one short
		{20, 0.5, 10, 10, true},  // median of 20
		{19, 0.5, 10, 9, false},  // median of 19
		{1000, 0.9, 900, 100, true},
		{1, 0.5, 1, 0, false},
	} {
		got := percentile(ramp(tc.n), tc.p)
		if got.Value != tc.value || got.Tail != tc.tail || got.OK != tc.ok {
			t.Errorf("n=%d p=%.1f: got value %v tail %d ok %v, want %v %d %v",
				tc.n, tc.p, got.Value, got.Tail, got.OK, tc.value, tc.tail, tc.ok)
		}
	}
	if got := percentile(nil, 0.5); got.OK || got.Tail != 0 {
		t.Errorf("empty sample reported %+v", got)
	}
}

func TestClassBoundary(t *testing.T) {
	// Half cheap hits, half dear misses: p50 sits on the boundary, p90
	// deep among the misses.
	var s []sample
	for i := 0; i < 100; i++ {
		s = append(s, sample{ms: 30 + float64(i%7), class: "hit"}, sample{ms: 120 + float64(i%11), class: "miss"})
	}
	sort.Slice(s, func(i, j int) bool { return s[i].ms < s[j].ms })
	if p := percentile(s, 0.5); !p.Boundary {
		t.Errorf("p50 of a 50/50 hit/miss mix not flagged: %+v", p)
	}
	if p := percentile(s, 0.9); p.Boundary {
		t.Errorf("p90 inside the miss class flagged: %+v", p)
	}

	// Three hits per miss moves p50 well inside the hits.
	s = s[:0]
	for i := 0; i < 200; i++ {
		c, v := "hit", 30+float64(i%7)
		if i%4 == 0 {
			c, v = "miss", 120+float64(i%11)
		}
		s = append(s, sample{ms: v, class: c})
	}
	sort.Slice(s, func(i, j int) bool { return s[i].ms < s[j].ms })
	for _, p := range []float64{0.5, 0.9} {
		if got := percentile(s, p); got.Boundary {
			t.Errorf("p%.0f of a 3:1 mix flagged: %+v", 100*p, got)
		}
	}

	// One slow instance of eight takes the top tenth: p90 lands on it.
	s = s[:0]
	for i := 0; i < 400; i++ {
		c, v := fmt.Sprintf("inst%d", i%8), 25+float64(i%5)
		if i%8 == 2 {
			v = 50 + float64(i%5)
		}
		s = append(s, sample{ms: v, class: c})
	}
	sort.Slice(s, func(i, j int) bool { return s[i].ms < s[j].ms })
	if got := percentile(s, 0.9); !got.Boundary {
		t.Errorf("p90 on a slow instance not flagged: %+v", got)
	}
	if got := percentile(s, 0.5); got.Boundary {
		t.Errorf("p50 among interleaved instances flagged: %+v", got)
	}

	// Interleaved classes of similar cost never form a boundary.
	s = s[:0]
	for i := 0; i < 200; i++ {
		s = append(s, sample{ms: float64(i), class: fmt.Sprintf("inst%d", i%8)})
	}
	if got := percentile(s, 0.5); got.Boundary {
		t.Errorf("interleaved instances flagged: %+v", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(vals, n=4) in Python 3.
	for _, tc := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 4, 7}, 1.75, 9.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 6}, 4.75, 6.25},
	} {
		q1, q3 := quartiles(tc.vals)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.vals, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64, xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = f * x
		}
		return out
	}
	for _, tc := range []struct {
		name        string
		old, new    []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"faster in every pair", steady, scaled(0.9, steady), true, 0.1, improved},
		{"same numbers", steady, steady, true, 0.1, unchanged},
		{"slower beyond the bound", steady, scaled(1.2, steady), true, 0.1, regressed},
		{"slower within the bound", steady, scaled(1.05, steady), true, 0.1, unchanged},
		{"higher is better", steady, scaled(1.1, steady), false, 0.1, improved},
		{"throughput dropped", steady, scaled(0.8, steady), false, 0.1, regressed},
		// Wins 8 of 10 pairs: not enough for a gain.
		{"eight of ten", steady, []float64{90, 91, 89, 90, 92, 88, 90, 91, 120, 120}, true, 0.3, unchanged},
		// A parent spread wider than the bound leaves a small change
		// unresolved rather than unchanged.
		{"noisy parent", []float64{80, 120, 90, 110, 100, 70, 130, 100, 95, 105}, []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}, true, 0.1, unresolved},
		// Every change run better than every parent run: not unresolved,
		// even when the pair rule is not met.
		{"all better", []float64{100, 130, 100, 130, 100, 130, 100, 130, 100, 130}, []float64{99, 99, 99, 99, 99, 99, 99, 99, 99, 99}, true, 0.1, unchanged},
		{"no runs", nil, steady, true, 0.1, unresolved},
		// Without a bound, a worsening regresses by the mirrored pair rule.
		{"unbounded, worse in every pair", steady, scaled(1.1, steady), true, 0, regressed},
		{"unbounded, same numbers", steady, steady, true, 0, unchanged},
	} {
		if got := verdict(tc.old, tc.new, tc.lowerBetter, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestBenchmarkJSONMatches keeps the metric tables here and the
// repository's BENCHMARK.json in step: names, units, direction and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type m struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []m `json:"end_to_end"`
		PerLayer []m `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, json []m, defs []metricDef) {
		if len(json) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(json), len(defs))
			return
		}
		for i, j := range json {
			d := defs[i]
			better := "higher"
			if d.lowerBetter {
				better = "lower"
			}
			bound := 0.0
			if j.Bound != nil {
				bound = *j.Bound
			}
			if j.Name != d.name || j.Unit != d.unit || j.Better != better || bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json %+v (bound %v), benchmark %+v", kind, i, j, bound, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
