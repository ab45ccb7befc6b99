package service

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// FuzzSweepSpec feeds untrusted request bodies through the same decode path
// as wsplitd's POST /v1/sweeps (strict JSON, unknown fields rejected) and
// then through Validate. Validate must never panic, must reject with a
// descriptive "service: ..." error, and every spec it accepts must lie
// within all of the single-job limits — a spec that slips past them can
// hold a job worker for as long as it likes.
func FuzzSweepSpec(f *testing.F) {
	f.Add([]byte(`{"gen":"star","d":16,"algos":["trivial"],"seed":1,"trials":2}`))
	f.Add([]byte(`{"gen":"leftregular","nu":200,"nv":800,"d":16,"algos":["det","rand"],"trials":4096}`))
	f.Add([]byte(`{"gen":"biregular","nu":1024,"nv":4096,"d":20,"algos":["trivial","rand"],"trials":4,"trial_timeout_ms":50,"retries":2}`))
	f.Add([]byte(`{"gen":"star","d":8,"algos":["trivial"],"retries":2147483647,"trial_timeout_ms":1}`))
	f.Add([]byte(`{"gen":"star","d":8,"algos":["trivial"],"retries":-1}`))
	f.Add([]byte(`{"gen":"nope","algos":["det"]}`))
	f.Add([]byte(`{"gen":"star","algos":[]}`))
	f.Add([]byte(`{"gen":"leftregular","nu":-1,"nv":4,"d":2,"algos":["det"]}`))
	f.Add([]byte(`{"gen":"star","algos":["trivial"],"extra":true}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec SweepSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return // wsplitd answers 400 before Validate runs
		}
		if err := spec.Validate(); err != nil {
			if msg := err.Error(); !strings.HasPrefix(msg, "service: ") || len(msg) <= len("service: ") {
				t.Fatalf("rejection %q is not a descriptive service error", msg)
			}
			return
		}
		if !experiments.KnownGenerator(spec.Gen) {
			t.Fatalf("accepted unknown generator %q", spec.Gen)
		}
		if len(spec.Algos) == 0 || len(spec.Algos) > MaxAlgos {
			t.Fatalf("accepted %d algorithms, want 1..%d", len(spec.Algos), MaxAlgos)
		}
		for _, a := range spec.Algos {
			if !experiments.KnownAlgo(a) {
				t.Fatalf("accepted unknown algorithm %q", a)
			}
		}
		if spec.NU < 0 || spec.NV < 0 || spec.D < 0 || spec.NU > MaxNodes || spec.NV > MaxNodes {
			t.Fatalf("accepted instance size nu=%d nv=%d d=%d outside [0, %d]", spec.NU, spec.NV, spec.D, MaxNodes)
		}
		if spec.Trials < 0 || spec.Trials > MaxTrials {
			t.Fatalf("accepted %d trials outside [0, %d]", spec.Trials, MaxTrials)
		}
		if spec.Retries < 0 || spec.Retries > MaxRetries {
			t.Fatalf("accepted %d retries outside [0, %d]", spec.Retries, MaxRetries)
		}
		if spec.TrialTimeoutMS < 0 {
			t.Fatalf("accepted negative trial timeout %dms", spec.TrialTimeoutMS)
		}
	})
}
