package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef describes one reported metric; bound is the share of the
// parent's median by which it may worsen (0: no bound).
type metricDef struct {
	name, unit  string
	lowerBetter bool
	bound       float64
}

// endToEnd are the metrics a user sees, reported by untraced runs. The
// bounds are those BENCHMARK.json declares.
var endToEnd = []metricDef{
	{"latency_ms_p50", "ms", true, 0.25},
	{"latency_ms_p90", "ms", true, 0.25},
	{"throughput_per_s", "1/s", false, 0.25},
	{"alloc_mb_per_op", "MB", true, 0.1},
	{"setup_s", "s", true, 0.25},
}

// perLayer are the traced run's metrics that every workload measures. The
// traced run prints more — layers only some workloads reach — in its table.
var perLayer = []metricDef{
	{"local.run_ms", "ms", true, 0},
	{"local.rounds_per_s", "1/s", false, 0},
	{"local.runs", "count", true, 0},
	{"local.ms_per_run", "ms", true, 0},
	{"local.rounds", "count", true, 0},
	{"local.messages", "count", true, 0},
	{"graph.transform_ms", "ms", true, 0},
	{"check.verify_ms", "ms", true, 0},
	{"core.self_ms", "ms", true, 0},
	{"runtime.gc_cycles", "count", true, 0},
	{"runtime.gc_pause_ms", "ms", true, 0},
	{"trace.coverage", "ratio", false, 0},
}

// Run-shape constants.
const (
	// setupReps is how many times a run builds its inputs; setup_s is the
	// median. The repeats are spread over the timed window (with the
	// clock stopped) so they see the same host conditions as the ops.
	setupReps = 5
	// minSamples keeps a run going past its window until p90 has minTail
	// samples beyond it.
	minSamples = 10 * minTail
	// maxRun caps a run's timed ops, so a slow host fails loudly instead
	// of running on.
	maxRun = 120 * time.Second
	// warmupOps is the most ops the untimed first pass runs.
	warmupOps = 16
)

// record is one run's outcome: what the benchmark prints and what compare
// and steady read back.
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Meta      meta              `json:"meta"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra holds traced-run numbers outside perLayer.
	Extra map[string]metric `json:"extra,omitempty"`
	// Shares is each layer's share of the traced rebuild's time.
	Shares map[string]float64 `json:"shares,omitempty"`
	// P50, P90 carry the percentile sample counts and flags.
	P50 *pctl `json:"p50,omitempty"`
	P90 *pctl `json:"p90,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value.
	N int `json:"n"`
}

// meta describes the machine and the run, recorded with every result.
type meta struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

func machine() meta {
	return meta{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(), Go: runtime.Version()}
}

// cpuModel reads the processor name from /proc/cpuinfo where there is one.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runner carries one run's state.
type runner struct {
	def     workloadDef
	seed    uint64
	w       workload
	pins    map[int]opResult
	rec     *record
	setups  []float64     // seconds per setup
	paused  time.Duration // time the clock was stopped inside the window
	pauseMB float64       // allocation while it was stopped
}

// measure runs one workload for one seed: setup, a short untimed pass that
// warms up and pins the first ops' work and output, then whole passes over
// the op multiset until the window is over.
func measure(def workloadDef, seed uint64, seconds float64, traced bool) (*record, error) {
	r := &runner{def: def, seed: seed, pins: map[int]opResult{}}
	r.rec = &record{Workload: def.name, Seed: seed, Seconds: seconds, Traced: traced, Meta: machine(), Metrics: map[string]metric{}}
	w, err := r.setup()
	if err != nil {
		return nil, err
	}
	r.w = w
	defer func() { r.w.close() }()
	for i := 0; i < min(w.cycle(), warmupOps); i++ {
		r.check(w.op(i))
	}
	if traced {
		return r.rec, r.tracedWindow(seconds)
	}
	r.window(seconds)
	return r.rec, nil
}

// setup builds the workload's inputs once and records the time.
func (r *runner) setup() (workload, error) {
	start := time.Now()
	w, err := r.def.setup(r.seed)
	if err != nil {
		return nil, err
	}
	r.setups = append(r.setups, time.Since(start).Seconds())
	return w, nil
}

// extraSetup repeats the setup with the window's clock stopped, discarding
// the inputs, and collects their garbage so the next op does not pay for it.
func (r *runner) extraSetup() {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	w, err := r.setup()
	if err != nil {
		r.fail(err)
	} else {
		w.close()
	}
	runtime.GC()
	r.paused += time.Since(start)
	runtime.ReadMemStats(&m1)
	r.pauseMB += float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
}

// check compares an op's result with the pin for its key, pinning it on
// first sight, and counts the op.
func (r *runner) check(res opResult, err error) bool {
	r.rec.Attempted++
	if err != nil {
		r.fail(err)
		return false
	}
	pin, ok := r.pins[res.key]
	if !ok {
		r.pins[res.key] = res
		return true
	}
	if pin.rounds != res.rounds || pin.messages != res.messages || pin.hash != res.hash {
		r.fail(fmt.Errorf("op %s (key %d) drifted: rounds %d→%d, messages %d→%d, output %x→%x",
			res.class, res.key, pin.rounds, res.rounds, pin.messages, res.messages, pin.hash, res.hash))
		return false
	}
	return true
}

func (r *runner) fail(err error) {
	r.rec.Failed++
	if len(r.rec.Errors) < 5 {
		r.rec.Errors = append(r.rec.Errors, err.Error())
	}
}

// done reports whether the window is over: whole passes only, at least
// minSamples ops, at most maxRun.
func (r *runner) done(start time.Time, seconds float64, ops int) bool {
	active := time.Since(start) - r.paused
	if active > maxRun {
		return true
	}
	return active.Seconds() >= seconds && ops >= minSamples
}

// window times whole passes over the op multiset, one op at a time (one
// closed-loop client), and fills the end-to-end metrics.
func (r *runner) window(seconds float64) {
	w := r.w
	var samples []sample
	var cpu []float64
	cpuStart := cpuTime()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	i := min(w.cycle(), warmupOps) // after the untimed pass
	for !r.done(start, seconds, len(samples)) {
		for j := 0; j < w.cycle(); j++ {
			c0 := cpuTime()
			t0 := time.Now()
			res, err := w.op(i)
			lat := time.Since(t0)
			cpu = append(cpu, ms(cpuTime()-c0))
			r.check(res, err)
			samples = append(samples, sample{ms: ms(lat), class: res.class})
			i++
		}
		// Spread the setup repeats over the window.
		if len(r.setups) < setupReps && (time.Since(start)-r.paused).Seconds() >= seconds*float64(len(r.setups))/setupReps {
			r.extraSetup()
		}
	}
	active := time.Since(start) - r.paused
	runtime.ReadMemStats(&m1)
	for len(r.setups) < setupReps {
		r.extraSetup()
	}

	sort.Slice(samples, func(a, b int) bool { return samples[a].ms < samples[b].ms })
	p50, p90 := percentile(samples, 0.5), percentile(samples, 0.9)
	r.rec.P50, r.rec.P90 = &p50, &p90
	n := len(samples)
	allocMB := float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20) - r.pauseMB
	r.put("latency_ms_p50", p50.Value, n)
	if p90.OK {
		r.put("latency_ms_p90", p90.Value, n)
	} else {
		r.fail(fmt.Errorf("p90 has %d samples beyond it, fewer than %d: not reported", p90.Tail, minTail))
	}
	r.put("throughput_per_s", float64(n)/active.Seconds(), n)
	r.put("alloc_mb_per_op", allocMB/float64(n), n)
	r.put("setup_s", median(r.setups), len(r.setups))
	r.rec.Extra = map[string]metric{
		"cpu_ms_p50":    {median(cpu), "ms", n},
		"cpu_ms_per_op": {ms(cpuTime()-cpuStart) / float64(n), "ms", n},
	}
	r.rec.Correct = r.rec.Failed == 0
}

// cpuTime is the process's CPU time so far, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (r *runner) put(name string, v float64, n int) {
	for _, d := range append(endToEnd, perLayer...) {
		if d.name == name {
			r.rec.Metrics[name] = metric{Value: v, Unit: d.unit, N: n}
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// tracedWindow runs, for every op, the untraced op and then its traced
// rebuild, whose output must match; spans and layer numbers come from the
// rebuild, and its time over the untraced op's is the trace's coverage.
func (r *runner) tracedWindow(seconds float64) error {
	w := r.w
	t := newTracer()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var plain, rebuilt time.Duration
	var runs, rounds, messages int64
	class := map[int]string{}
	ops := 0
	start := time.Now()
	i := min(w.cycle(), warmupOps)
	for !r.done(start, seconds, ops) {
		for j := 0; j < w.cycle(); j++ {
			t.op = i
			s := t.begin("op")
			t0 := time.Now()
			res, err := w.op(i)
			plain += time.Since(t0)
			t.end(s)
			r.check(res, err)
			t1 := time.Now()
			tres, err := w.traced(i, t)
			rebuilt += time.Since(t1)
			if r.check(tres, err) {
				class[i] = tres.class
				runs += tres.runs
				rounds += tres.rounds
				messages += tres.messages
			}
			ops++
			i++
		}
	}
	runtime.ReadMemStats(&m1)

	self := layerTotals(t.spans)
	perOp := func(name string) float64 { return ms(self[name]) / float64(ops) }
	localMS := ms(self["local.run"])
	r.put("local.run_ms", localMS/float64(ops), ops)
	r.put("local.rounds_per_s", float64(rounds)/(localMS/1000), ops)
	r.put("local.runs", float64(runs)/float64(ops), ops)
	r.put("local.ms_per_run", localMS/float64(max(runs, 1)), ops)
	r.put("local.rounds", float64(rounds)/float64(ops), ops)
	r.put("local.messages", float64(messages)/float64(ops), ops)
	r.put("graph.transform_ms", perOp("graph.transform"), ops)
	r.put("check.verify_ms", perOp("check.verify"), ops)
	r.put("core.self_ms", perOp("core"), ops)
	r.put("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC)/float64(ops), ops)
	r.put("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6/float64(ops), ops)
	r.put("trace.coverage", rebuilt.Seconds()/plain.Seconds(), ops)

	r.rec.Extra = map[string]metric{
		"graph.generate_ms": {perOp("graph.generate"), "ms", ops},
		"coloring.self_ms":  {perOp("coloring"), "ms", ops},
		"derand.greedy_ms":  {perOp("derand.greedy"), "ms", ops},
		"op.untraced_ms":    {ms(plain) / float64(ops), "ms", ops},
		"op.traced_ms":      {ms(rebuilt) / float64(ops), "ms", ops},
	}
	// Generation split by cost class where there are a few, as on the
	// sweep, where it must be zero on hits.
	if classes := distinct(class); len(classes) > 1 && len(classes) <= 3 {
		gen := map[string]float64{}
		count := map[string]int{}
		for _, c := range class {
			count[c]++
		}
		st := selfTimes(t.spans)
		for k, s := range t.spans {
			if s.Name == "graph.generate" {
				gen[class[s.Op]] += ms(st[k])
			}
		}
		for _, c := range classes {
			r.rec.Extra["graph.generate_ms."+c] = metric{gen[c] / float64(count[c]), "ms", count[c]}
		}
	}
	for k, v := range w.layers(ops) {
		r.rec.Extra[k] = v
	}
	r.rec.Shares = map[string]float64{}
	for name, d := range self {
		if name != "op" {
			r.rec.Shares[name] = d.Seconds() / rebuilt.Seconds()
		}
	}
	r.rec.Correct = r.rec.Failed == 0
	return writeSpans(fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", r.def.name, r.seed), t.spans)
}

// printRecord writes the human-readable report of one run.
func printRecord(out io.Writer, rec *record) {
	mode := "untraced"
	if rec.Traced {
		mode = "traced"
	}
	fmt.Fprintf(out, "== %s  seed=%d  seconds=%g  %s  nproc=%d GOMAXPROCS=%d  %s  cpu=%q\n",
		rec.Workload, rec.Seed, rec.Seconds, mode, rec.Meta.NProc, rec.Meta.GOMAXPROCS, rec.Meta.Go, rec.Meta.CPU)
	fmt.Fprintf(out, "   ops attempted=%d failed=%d fail_ratio=%.4f\n", rec.Attempted, rec.Failed, float64(rec.Failed)/float64(max(rec.Attempted, 1)))
	for _, e := range rec.Errors {
		fmt.Fprintf(out, "   error: %s\n", e)
	}
	if len(rec.Shares) > 0 {
		layers := make([]string, 0, len(rec.Shares))
		for k := range rec.Shares {
			layers = append(layers, k)
		}
		sort.Slice(layers, func(i, j int) bool { return rec.Shares[layers[i]] > rec.Shares[layers[j]] })
		fmt.Fprint(out, "   layer shares of the traced op:")
		for _, k := range layers {
			fmt.Fprintf(out, " %s %.1f%%", k, 100*rec.Shares[k])
		}
		fmt.Fprintln(out)
	}
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rec.Metrics[k]
		note := ""
		if p := pctlFor(rec, k); p != nil {
			note = fmt.Sprintf("  tail=%d", p.Tail)
			if p.Boundary {
				note += "  ON A COST-CLASS BOUNDARY"
			}
		}
		fmt.Fprintf(out, "   %-28s %12.4f %-6s n=%d%s\n", k, m.Value, m.Unit, m.N, note)
	}
	extra := make([]string, 0, len(rec.Extra))
	for k := range rec.Extra {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		m := rec.Extra[k]
		fmt.Fprintf(out, "   %-28s %12.4f %-6s n=%d  (table only)\n", k, m.Value, m.Unit, m.N)
	}
}

func pctlFor(rec *record, name string) *pctl {
	switch name {
	case "latency_ms_p50":
		return rec.P50
	case "latency_ms_p90":
		return rec.P90
	}
	return nil
}

// appendRecord adds one record to a JSON-lines file.
func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("append record: %w", err)
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return fmt.Errorf("append record: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("append record: %w", err)
	}
	return nil
}

// distinct returns the sorted distinct values of m.
func distinct(m map[int]string) []string {
	seen := map[string]bool{}
	var out []string
	for _, v := range m {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}
