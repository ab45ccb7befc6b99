package main

import "testing"

// TestTracedRebuildMatches runs one op of every workload plainly and then
// rebuilt with spans: the rebuild must repeat the op's simulated work and
// output, and cover it with spans.
func TestTracedRebuildMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's op")
	}
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			w, err := def.setup(5)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			tr := newTracer()
			for i := 0; i < min(w.cycle(), 8); i++ {
				want, err := w.op(i)
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				tr.op = i
				got, err := w.traced(i, tr)
				if err != nil {
					t.Fatalf("traced op %d: %v", i, err)
				}
				got.runs, want.runs = 0, 0
				if got != want {
					t.Fatalf("op %d: traced %+v, untraced %+v", i, got, want)
				}
			}
			names := map[string]bool{}
			for _, s := range tr.spans {
				names[s.Name] = true
			}
			for _, n := range []string{"core", "local.run", "check.verify"} {
				if !names[n] {
					t.Errorf("no %s span", n)
				}
			}
		})
	}
}
