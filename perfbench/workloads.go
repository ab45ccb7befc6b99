package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/derand"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
	"repro/internal/reduction"
	"repro/internal/service"
	"repro/internal/slocal"
)

// Workload sizes. det-resident keeps the B² coloring at about two thirds
// of core's simulation budget, so it runs as a real word-plane LOCAL
// simulation, with ops of about 100 ms, long enough that a burst of host
// noise does not decide a whole op; color-split is experiment E10's graph
// shape at half the size; the sweep is large enough that generation and
// solving both show.
const (
	detNU, detNV, detDelta = 200, 400, 36
	detInstances           = 16

	colorN, colorP, colorEps = 512, 0.5, 0.25

	sweepNU, sweepNV, sweepDelta = 1024, 4096, 20
	sweepTrials                  = 4
	// sweepHits is how many sweeps repeat each seed range right after the
	// one that builds it; with one miss per range, 3 of 4 sweeps hit the
	// cache, so p50 falls among the hits and p90 among the misses, far
	// from the class boundary.
	sweepHits = 3
	// sweepRanges seed ranges take turns. Each puts sweepTrials instances
	// in the service's 64-entry LRU cache, so 17 ranges evict a range
	// before its next turn, and its first sweep misses again.
	sweepRanges = 17
)

// opResult is what one op produced, for the correctness gate: the same op
// must repeat its simulated work and output exactly.
type opResult struct {
	key      int    // ops with equal keys must produce equal results
	class    string // cost class, for the percentile boundary flag
	runs     int64  // engine runs (counted by traced ops only)
	rounds   int64  // simulated LOCAL rounds
	messages int64  // delivered LOCAL messages
	hash     uint64 // digest of the output
}

// workload is one set of inputs and the op the benchmark times on them.
type workload interface {
	// cycle is the number of ops in one pass over the workload's op
	// multiset; a run does whole passes.
	cycle() int
	// op runs op i as a user would, with the engine counting work.
	op(i int) (opResult, error)
	// traced rebuilds op i, which has just run, from the public calls the
	// op makes, recording a span around each; its work and output must
	// equal op's.
	traced(i int, t *tracer) (opResult, error)
	// layers reports layer numbers the workload gathers itself over the
	// traced ops so far, which numbered ops.
	layers(ops int) map[string]metric
	close()
}

// workloadDef names a workload and builds its inputs from a seed.
type workloadDef struct {
	name  string
	setup func(seed uint64) (workload, error)
}

// workloads, in BENCHMARK.json's order; README.md says why each is there.
var workloads = []workloadDef{
	{"det-resident", newDetResident},
	{"color-split", newColorSplit},
	{"sweep-service", newSweepService},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func hashInts(xs []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		for i := range b {
			b[i] = byte(uint64(x) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// countingEstimator counts CostIf calls, the derandomizer's unit of work.
type countingEstimator struct {
	derand.Estimator
	calls *int64
}

func (c countingEstimator) CostIf(v, x int) float64 {
	*c.calls++
	return c.Estimator.CostIf(v, x)
}

// ---- det-resident ----

type detResident struct {
	inst   []*graph.Bipartite
	eng    *timedEngine
	costIf int64
}

func newDetResident(seed uint64) (workload, error) {
	w := &detResident{eng: &timedEngine{}}
	src := prob.NewSource(seed)
	for i := 0; i < detInstances; i++ {
		b, err := graph.RandomBipartiteBiregular(detNU, detNV, detDelta, src.Fork(uint64(i)).Rand())
		if err != nil {
			return nil, fmt.Errorf("det-resident instance %d: %w", i, err)
		}
		b.Normalize()
		// The traced rebuild follows Theorem 2.5's small-δ branch
		// (Lemma 2.2 directly); an instance outside it is a sizing bug.
		if logn := prob.Log2(float64(b.N())); float64(b.MinDegU()) > 48*logn || float64(b.MinDegU()) < 2*logn {
			return nil, fmt.Errorf("det-resident instance %d: δ=%d outside Theorem 2.5's small-δ branch", i, b.MinDegU())
		}
		w.inst = append(w.inst, b)
	}
	return w, nil
}

func (w *detResident) cycle() int { return len(w.inst) }
func (w *detResident) close()     {}

func (w *detResident) result(i int, colors []int) opResult {
	k := i % len(w.inst)
	wk := w.eng.take()
	return opResult{key: k, class: fmt.Sprintf("inst%d", k), runs: wk.runs, rounds: wk.rounds, messages: wk.messages, hash: hashInts(colors)}
}

func (w *detResident) op(i int) (opResult, error) {
	b := w.inst[i%len(w.inst)]
	w.eng.tr = nil
	res, err := core.DeterministicSplit(b, core.DeterministicOptions{Engine: w.eng})
	if err != nil {
		return opResult{}, err
	}
	if err := check.WeakSplit(b, res.Colors, 0); err != nil {
		return opResult{}, err
	}
	if err := noStandIn(&res.Trace); err != nil {
		return opResult{}, err
	}
	return w.result(i, res.Colors), nil
}

// noStandIn fails an op whose conflict coloring was not simulated, which
// would mean the workload silently stopped exercising the engine.
func noStandIn(t *core.Trace) error {
	for _, n := range t.Notes {
		if strings.Contains(n, "stood in") {
			return fmt.Errorf("det-resident: conflict coloring was not simulated: %s", n)
		}
	}
	return nil
}

// traced is Lemma 2.2 (Theorem 2.5's small-δ branch) call by call, as
// core.TruncatedDerandomized and core.BasicDerandomized make them.
func (w *detResident) traced(i int, t *tracer) (opResult, error) {
	b := w.inst[i%len(w.inst)]
	w.eng.tr = t
	root := t.begin("core")
	defer t.end(root)

	s := t.begin("graph.transform")
	keep := int(math.Ceil(2 * prob.Log2(float64(b.N()))))
	h := graph.TruncateLeftDegrees(b, keep)
	conflict := h.VPower(1)
	t.end(s)

	var trace core.Trace
	s = t.begin("coloring")
	colors, num, err := core.ConflictColoring(conflict, w.eng, &trace, "B2-coloring", 2)
	t.end(s)
	if err != nil {
		return opResult{}, err
	}
	if err := noStandIn(&trace); err != nil {
		return opResult{}, err
	}

	vtc := make([][]int32, h.NV())
	for v := range vtc {
		vtc[v] = h.NbrV(v)
	}
	degs := make([]int, h.NU())
	for u := range degs {
		degs[u] = h.DegU(u)
	}
	s = t.begin("derand.greedy")
	est := countingEstimator{derand.NewWeakSplitEstimator(vtc, degs), &w.costIf}
	compiled, err := slocal.CompileGreedy(est, colors, num, 2)
	t.end(s)
	if err != nil {
		return opResult{}, err
	}

	// The three self-checks the op runs: Lemma 2.1 on H, Lemma 2.2 on the
	// original, and Theorem 2.5's own.
	s = t.begin("check.verify")
	err = check.WeakSplit(h, compiled.Labels, 0)
	if err == nil {
		err = check.WeakSplit(b, compiled.Labels, 0)
	}
	if err == nil {
		err = check.WeakSplit(b, compiled.Labels, 0)
	}
	t.end(s)
	if err != nil {
		return opResult{}, err
	}
	return w.result(i, compiled.Labels), nil
}

func (w *detResident) layers(ops int) map[string]metric {
	return map[string]metric{"derand.costif_calls": {float64(w.costIf) / float64(ops), "count", ops}}
}

// ---- color-split ----

type colorSplit struct {
	g      *graph.Graph
	eng    *timedEngine
	costIf int64
}

func newColorSplit(seed uint64) (workload, error) {
	g := graph.RandomGraph(colorN, colorP, prob.NewSource(seed).Rand())
	g.Normalize()
	return &colorSplit{g: g, eng: &timedEngine{}}, nil
}

func (w *colorSplit) cycle() int { return 1 }
func (w *colorSplit) close()     {}

func (w *colorSplit) result(colors []int) opResult {
	wk := w.eng.take()
	return opResult{class: "g", runs: wk.runs, rounds: wk.rounds, messages: wk.messages, hash: hashInts(colors)}
}

func (w *colorSplit) op(int) (opResult, error) {
	w.eng.tr = nil
	res, err := reduction.ColoringViaSplitting(w.g, w.eng, reduction.UniformSplitOptions{Eps: colorEps})
	if err != nil {
		return opResult{}, err
	}
	if err := check.ProperColoring(w.g, res.Colors, res.Num); err != nil {
		return opResult{}, err
	}
	return w.result(res.Colors), nil
}

// traced is reduction.ColoringViaSplitting call by call: recursive
// derandomized uniform splits of induced parts, then a (Δ+1)-coloring of
// every part with its own palette.
func (w *colorSplit) traced(_ int, t *tracer) (opResult, error) {
	g := w.g
	w.eng.tr = t
	root := t.begin("core")
	defer t.end(root)

	n := g.N()
	minDeg := int(math.Ceil(2 * math.Log(2*float64(max(2, n))) / (colorEps * colorEps)))
	loglog := prob.CeilLog2(prob.CeilLog2(max(4, n)) + 1)
	levels := max(0, prob.FloorLog2(max(1, g.MaxDeg()))-loglog)
	part := make([]int, n)
	parts := 1
	for level := 0; level < levels; level++ {
		members := groupByPart(part, parts)
		splitAny := false
		for p := 0; p < parts; p++ {
			if len(members[p]) == 0 {
				continue
			}
			s := t.begin("graph.transform")
			sub, orig := g.InducedSubgraph(members[p])
			t.end(s)
			if sub.MaxDeg() < minDeg {
				for _, v := range members[p] {
					part[v] = 2 * part[v]
				}
				continue
			}
			labels, err := w.uniformSplit(sub, minDeg, t)
			if err != nil {
				return opResult{}, fmt.Errorf("color-split level %d part %d: %w", level, p, err)
			}
			for sv, lab := range labels {
				part[orig[sv]] = 2*part[orig[sv]] + lab
			}
			splitAny = true
		}
		parts *= 2
		if !splitAny {
			break
		}
	}
	members := groupByPart(part, parts)
	colors := make([]int, n)
	offset := 0
	for p := 0; p < parts; p++ {
		if len(members[p]) == 0 {
			continue
		}
		s := t.begin("graph.transform")
		sub, orig := g.InducedSubgraph(members[p])
		t.end(s)
		s = t.begin("coloring")
		res, err := coloring.DeltaPlusOne(sub, w.eng, local.Options{})
		t.end(s)
		if err != nil {
			return opResult{}, err
		}
		for sv, c := range res.Colors {
			colors[orig[sv]] = offset + c
		}
		offset += res.Num
	}
	s := t.begin("check.verify")
	err := check.ProperColoring(g, colors, offset)
	t.end(s)
	if err != nil {
		return opResult{}, err
	}
	return w.result(colors), nil
}

// uniformSplit is reduction.UniformSplit's derandomized path.
func (w *colorSplit) uniformSplit(g *graph.Graph, minDeg int, t *tracer) ([]int, error) {
	n := g.N()
	vtc := make([][]int32, n)
	var degs []int
	consIdx := make([]int32, n)
	for v := 0; v < n; v++ {
		consIdx[v] = -1
		if g.Deg(v) >= minDeg {
			consIdx[v] = int32(len(degs))
			degs = append(degs, g.Deg(v))
		}
	}
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(v) {
			if consIdx[u] >= 0 {
				vtc[v] = append(vtc[v], consIdx[u])
			}
		}
	}
	if len(degs) == 0 {
		return make([]int, n), nil
	}
	s := t.begin("derand.greedy")
	est := derand.NewUniformSplitEstimator(vtc, degs, colorEps)
	if est.Cost() >= 1 {
		t.end(s)
		return nil, fmt.Errorf("derandomization precondition failed (Φ=%.3g)", est.Cost())
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	labels, err := derand.Greedy(countingEstimator{est, &w.costIf}, order)
	t.end(s)
	if err != nil {
		return nil, err
	}
	s = t.begin("check.verify")
	err = check.UniformSplit(g, labels, colorEps, minDeg)
	t.end(s)
	return labels, err
}

func groupByPart(part []int, parts int) [][]int {
	members := make([][]int, parts)
	for v, p := range part {
		members[p] = append(members[p], v)
	}
	return members
}

func (w *colorSplit) layers(ops int) map[string]metric {
	return map[string]metric{"derand.costif_calls": {float64(w.costIf) / float64(ops), "count", ops}}
}

// ---- sweep-service ----

type sweepService struct {
	srv  *service.Server
	base uint64 // first seed of range 0
	eng  *timedEngine

	// Replay state: the instances of the current seed range, as the
	// service's cache holds them.
	replayRange int
	replayInst  []*graph.Bipartite

	// last is the status of the latest sweep, which traced replays; prev
	// the server's counters after it.
	last service.JobStatus
	prev service.Stats

	// Layer numbers from the service's own reports, over traced ops.
	stats0                       *service.Stats
	gridSelf, queueWait, jobWall []float64
	classes                      []string
}

var sweepAlgos = []string{"trivial", "rand"}

func newSweepService(seed uint64) (workload, error) {
	w := &sweepService{
		srv:         service.New(service.Options{}),
		base:        seed << 32,
		eng:         &timedEngine{},
		replayRange: -1,
	}
	// The server's first sweep, on a range no op uses, pays its cold
	// start here rather than in the first timed op.
	if _, err := w.sweep(service.SweepSpec{
		Gen: "biregular", NU: sweepNU, NV: sweepNV, D: sweepDelta,
		Algos: sweepAlgos, Seed: w.base - sweepTrials, Trials: sweepTrials,
	}); err != nil {
		w.close()
		return nil, fmt.Errorf("sweep-service warm-up: %w", err)
	}
	w.prev = w.srv.Stats()
	return w, nil
}

func (w *sweepService) cycle() int { return sweepRanges * (1 + sweepHits) }
func (w *sweepService) close()     { w.srv.Close() }

// spec is op i's sweep: every 1+sweepHits ops the next seed range comes
// up, first as a cache miss, then as hits.
func (w *sweepService) spec(i int) (service.SweepSpec, int, string) {
	r := i / (1 + sweepHits) % sweepRanges
	class := "hit"
	if i%(1+sweepHits) == 0 {
		class = "miss"
	}
	return service.SweepSpec{
		Gen: "biregular", NU: sweepNU, NV: sweepNV, D: sweepDelta,
		Algos: sweepAlgos, Seed: w.base + uint64(r*sweepTrials), Trials: sweepTrials,
	}, r, class
}

// sweep submits one spec and polls until it is terminal: one closed-loop
// client.
func (w *sweepService) sweep(spec service.SweepSpec) (service.JobStatus, error) {
	st, err := w.srv.Submit(spec)
	if err != nil {
		return st, err
	}
	wait := 20 * time.Microsecond
	for !st.State.Terminal() {
		time.Sleep(wait)
		wait = min(2*wait, 250*time.Microsecond)
		var ok bool
		if st, ok = w.srv.Get(st.ID); !ok {
			return st, fmt.Errorf("job %s vanished", st.ID)
		}
	}
	if st.State != service.StateDone {
		return st, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	for _, tr := range st.Trials {
		if !tr.Valid {
			return st, fmt.Errorf("job %s: %s/%s/seed %d invalid", st.ID, tr.Graph, tr.Algo, tr.Seed)
		}
	}
	return st, nil
}

// trialHash digests a job's per-trial outputs, in trial order.
func trialHash(trials []experiments.TrialResult) uint64 {
	xs := make([]int, 0, 4*len(trials))
	for _, tr := range trials {
		xs = append(xs, int(tr.Seed), tr.Rounds, tr.Red, tr.Blue)
	}
	return hashInts(xs)
}

func (w *sweepService) op(i int) (opResult, error) {
	spec, r, class := w.spec(i)
	if w.stats0 == nil && i >= warmupOps {
		// The first op after the untimed pass: count the cache from here.
		s0 := w.prev
		w.stats0 = &s0
	}
	st, err := w.sweep(spec)
	w.last = st
	if err != nil {
		return opResult{}, err
	}
	// The class is the workload's plan; the cache must have followed it.
	now := w.srv.Stats()
	hits, misses := now.CacheHits-w.prev.CacheHits, now.CacheMisses-w.prev.CacheMisses
	w.prev = now
	if (class == "hit" && (hits != sweepTrials || misses != 0)) || (class == "miss" && (misses != sweepTrials || hits != 0)) {
		return opResult{}, fmt.Errorf("sweep-service: %s op %d saw %d cache hits and %d misses", class, i, hits, misses)
	}
	return opResult{key: r, class: class, rounds: st.Accounting.Rounds, messages: st.Accounting.Messages, hash: trialHash(st.Trials)}, nil
}

// traced reads the service's own accounting of the sweep op i just ran,
// then replays the job's calls outside the service — the instance build on
// a miss, then per seed and algorithm the solve and the verification the
// experiment grid makes — with a span around each.
func (w *sweepService) traced(i int, t *tracer) (opResult, error) {
	spec, r, class := w.spec(i)
	st := w.last
	if st.Spec.Seed != spec.Seed {
		return opResult{}, fmt.Errorf("sweep-service: op %d has no finished job to replay", i)
	}
	var elapsed time.Duration
	for _, tr := range st.Trials {
		elapsed += tr.Elapsed
	}
	w.gridSelf = append(w.gridSelf, float64(st.Accounting.WallMS)-ms(elapsed))
	w.queueWait = append(w.queueWait, float64(st.Accounting.QueueWaitMS))
	w.jobWall = append(w.jobWall, float64(st.Accounting.WallMS))
	w.classes = append(w.classes, class)

	w.eng.tr = t
	root := t.begin("core")
	defer t.end(root)
	if r != w.replayRange {
		w.replayInst = w.replayInst[:0]
		for k := 0; k < spec.Trials; k++ {
			s := t.begin("graph.generate")
			b, err := experiments.BuildInstance(spec.Gen, "", spec.NU, spec.NV, spec.D, prob.NewSource(spec.Seed+uint64(k)))
			t.end(s)
			if err != nil {
				return opResult{}, err
			}
			s = t.begin("graph.transform")
			b.Normalize()
			t.end(s)
			w.replayInst = append(w.replayInst, b)
		}
		w.replayRange = r
	}
	trials := make([]experiments.TrialResult, 0, len(st.Trials))
	for k, b := range w.replayInst {
		seed := spec.Seed + uint64(k)
		for _, algo := range spec.Algos {
			res, err := experiments.Solve(algo, b, prob.NewSource(seed).Fork(1), w.eng)
			if err != nil {
				return opResult{}, err
			}
			s := t.begin("check.verify")
			err = check.WeakSplit(b, res.Colors, 0)
			t.end(s)
			if err != nil {
				return opResult{}, err
			}
			tr := experiments.TrialResult{Seed: seed, Rounds: res.Trace.Rounds()}
			for _, c := range res.Colors {
				if c == core.Red {
					tr.Red++
				} else {
					tr.Blue++
				}
			}
			trials = append(trials, tr)
		}
	}
	wk := w.eng.take()
	return opResult{key: r, class: class, runs: wk.runs, rounds: wk.rounds, messages: wk.messages, hash: trialHash(trials)}, nil
}

func (w *sweepService) layers(ops int) map[string]metric {
	stats := w.srv.Stats()
	if w.stats0 != nil {
		stats.CacheHits -= w.stats0.CacheHits
		stats.CacheMisses -= w.stats0.CacheMisses
		stats.Rejected -= w.stats0.Rejected
	}
	out := map[string]metric{
		"service.rejected":          {float64(stats.Rejected), "count", ops},
		"service.queue_wait_ms_p50": {median(w.queueWait), "ms", ops},
		"service.job_wall_ms_p50":   {median(w.jobWall), "ms", ops},
		"experiments.grid_self_ms":  {mean(w.gridSelf), "ms", ops},
	}
	if n := stats.CacheHits + stats.CacheMisses; n > 0 {
		out["service.cache_hit_ratio"] = metric{float64(stats.CacheHits) / float64(n), "ratio", int(n)}
	}
	for _, class := range []string{"miss", "hit"} {
		var xs []float64
		for k, c := range w.classes {
			if c == class {
				xs = append(xs, w.gridSelf[k])
			}
		}
		out["experiments.grid_self_ms."+class] = metric{mean(xs), "ms", len(xs)}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
