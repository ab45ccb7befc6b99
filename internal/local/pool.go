package local

import (
	"fmt"
	"runtime"
	"sync"
)

// WorkerPoolEngine executes nodes on a fixed pool of worker goroutines, each
// processing a contiguous shard of the active nodes per round. Unlike
// GoroutineEngine there is no per-node goroutine and no per-round channel
// churn: the workers persist for the whole run, message arrays are
// double-buffered and reused across rounds, and an active-set makes
// terminated nodes cost zero work. Writes are race-free by construction —
// on the boxed and word planes each directed edge (v, port p) owns the
// unique slot next[deliver[arc]] of the flat message array (where
// arc = off[v]+p), on the bit planes shared boundary words go through
// atomics (see bit.go), and every per-node field is touched only by the
// worker that owns v's shard in that round.
//
// Shards are carved by arc weight, not node count: a node costs one Round
// call plus one unit of work per incident arc, so equal-node shards of a
// skewed-degree graph pile most of the arcs onto the workers that drew the
// hubs and the round waits on them. carveShards balances 1+deg instead.
//
// Like the other engines, per-node randomness is derived from (seed, ID)
// only, so a run is bit-for-bit identical to SequentialEngine.
type WorkerPoolEngine struct {
	// Workers is the pool size; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
}

var _ Engine = WorkerPoolEngine{}

// shard is a half-open range [lo, hi) of indices into the active-set.
type shard struct{ lo, hi int }

// poolWorker is the per-worker scratch state. Workers accumulate message
// counts locally and publish once per round to avoid cross-core traffic.
type poolWorker struct {
	msgs    int64
	err     error
	errNode int
}

// ParseEngine resolves a command-line engine name: "seq" (or "sequential"),
// "goroutine", "pool", or "batch" (the single-trial BatchEngine adapter).
// poolWorkers sizes the worker pool when name is "pool" or "batch" (<= 0
// means GOMAXPROCS) and is ignored otherwise.
func ParseEngine(name string, poolWorkers int) (Engine, error) {
	switch name {
	case "seq", "sequential":
		return SequentialEngine{}, nil
	case "goroutine":
		return GoroutineEngine{}, nil
	case "pool":
		return WorkerPoolEngine{Workers: poolWorkers}, nil
	case "batch":
		return BatchEngine{Workers: poolWorkers}, nil
	default:
		return nil, fmt.Errorf("local: unknown engine %q (have seq, goroutine, pool, batch)", name)
	}
}

// EngineUsesWorkers reports whether the named engine consumes a worker-pool
// size, so CLIs can reject a -workers flag that would be silently ignored.
func EngineUsesWorkers(name string) bool {
	return name == "pool" || name == "batch"
}

// carveShards splits active[:remaining] into at most nw contiguous shards
// of roughly equal weight, where a node weighs 1 + deg (one Round call plus
// one delivery per arc), and returns the shard boundaries reusing bounds.
// weight must be the active set's total weight; the engines maintain it
// incrementally across compactions. Node-count sharding — the previous
// scheme — serializes skewed-degree graphs on whichever worker draws the
// hubs; the powerlaw100k benchmark case is the regression guard.
func (t *Topology) carveShards(active []int32, remaining int, weight int64, nw int, bounds []int) []int {
	bounds = append(bounds[:0], 0)
	if nw > remaining {
		nw = remaining
	}
	target := (weight + int64(nw) - 1) / int64(nw)
	acc := int64(0)
	for i := 0; i < remaining && len(bounds) < nw; i++ {
		v := active[i]
		acc += 1 + int64(t.off[v+1]-t.off[v])
		if acc >= target {
			bounds = append(bounds, i+1)
			acc = 0
		}
	}
	if bounds[len(bounds)-1] != remaining {
		bounds = append(bounds, remaining)
	}
	return bounds
}

// carveByWeight splits active[:remaining] into contiguous chunks each
// weighing at least target (1 + deg per node, as in carveShards) and
// returns the chunk boundaries reusing bounds; the final chunk may be
// lighter. The batch runner carves every live trial's active set with it
// and interleaves the resulting (trial, shard) units shard-major.
func (t *Topology) carveByWeight(active []int32, remaining int, target int64, bounds []int32) []int32 {
	bounds = append(bounds[:0], 0)
	acc := int64(0)
	for i := 0; i < remaining; i++ {
		v := active[i]
		acc += 1 + int64(t.off[v+1]-t.off[v])
		if acc >= target && i+1 < remaining {
			bounds = append(bounds, int32(i+1))
			acc = 0
		}
	}
	bounds = append(bounds, int32(remaining))
	return bounds
}

// Run implements Engine.
func (e WorkerPoolEngine) Run(t *Topology, f Factory, opts Options) (Stats, error) {
	stats, _, _, err := e.run(t, f, opts)
	return stats, err
}

// workerCount resolves the effective pool size for n nodes.
func (e WorkerPoolEngine) workerCount(n int) int {
	nw := e.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if nw > n {
		nw = n
	}
	if nw < 1 {
		nw = 1
	}
	return nw
}

// run is Run with the double-buffered message arrays returned for
// inspection: on a clean finish both are all-nil (every inbox row is cleared
// by its owner right after Round consumes it, and rows of newly-terminated
// nodes are cleared during compaction), which is the buffer-hygiene
// invariant the white-box tests pin. Word- and bit-path runs report nil
// boxed planes (their planes obey the same hygiene invariant, pinned via
// runWord and runBit).
func (e WorkerPoolEngine) run(t *Topology, f Factory, opts Options) (Stats, []Message, []Message, error) {
	vs, err := views(t, opts)
	if err != nil {
		return Stats{}, nil, nil, err
	}
	n := t.N()
	// Node programs are created in the coordinator, in node order, so that
	// factories may keep (unsynchronized) shared state exactly as under the
	// other engines.
	nodes, err := buildNodes(f, vs)
	if err != nil {
		return Stats{}, nil, nil, err
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = defaultMaxRounds
	}
	nw := e.workerCount(n)
	bs, bw, ws, err := planeNodes(nodes, opts.Plane)
	if err != nil {
		return Stats{}, nil, nil, err
	}
	fs, err := newFaultState(t, opts.Faults)
	if err != nil {
		return Stats{}, nil, nil, err
	}
	ctl := opts.Control
	if bs != nil {
		stats, _, _, err := e.runBit(t, bs, bw, maxRounds, nw, fs, ctl)
		return stats, nil, nil, err
	}
	if ws != nil {
		stats, _, _, err := e.runWord(t, ws, maxRounds, nw, fs, ctl)
		return stats, nil, nil, err
	}
	return e.runBoxed(t, nodes, maxRounds, nw, fs, ctl)
}

// runBoxed is the boxed-plane loop.
func (e WorkerPoolEngine) runBoxed(t *Topology, nodes []Node, maxRounds, nw int, fs *faultState, ctl *RunControl) (Stats, []Message, []Message, error) {
	n := t.N()
	// Double-buffered flat message arrays sharing the topology's offsets,
	// allocated once. A node's inbox row is cleared by its owner right after
	// Round(v) consumes it, so after the swap the new next rows are already
	// all-nil; nothing is re-zeroed wholesale.
	arcs := len(t.adj)
	inbox := make([]Message, arcs)
	next := make([]Message, arcs)
	active := make([]int32, n)
	for v := range active {
		active[v] = int32(v)
	}
	done := make([]bool, n)
	// dead[v]: terminated in a strictly earlier round. Workers drop (and do
	// not count) deliveries to dead nodes — such messages would never be
	// consumed, and writing them would leave stale Message pointers in rows
	// the active set no longer visits. dead is written only by the
	// coordinator between rounds, so reading it inside a round is race-free
	// (done, by contrast, is written by workers mid-round).
	dead := make([]bool, n)

	workers := make([]poolWorker, nw)
	work := make([]chan shard, nw)
	round := 0
	var barrier sync.WaitGroup
	var lifetime sync.WaitGroup
	for w := 0; w < nw; w++ {
		work[w] = make(chan shard, 1)
		lifetime.Add(1)
		go func(w int) {
			defer lifetime.Done()
			st := &workers[w]
			// runShard executes one shard under a panic guard: a node-program
			// panic becomes the worker's error — merged deterministically by
			// the coordinator, like a port-count violation — and the caller
			// still reaches barrier.Done, so the round completes.
			curV := -1
			runShard := func(sh shard) {
				defer func() {
					if p := recover(); p != nil {
						st.err = newPanicError(curV, round, p)
						st.errNode = curV
					}
				}()
				r := round
				msgs := int64(0)
				for i := sh.lo; i < sh.hi; i++ {
					v := int(active[i])
					curV = v
					lo, hi := t.off[v], t.off[v+1]
					recv := inbox[lo:hi:hi]
					send, fin := nodes[v].Round(r, recv)
					if fin {
						done[v] = true
					}
					if send != nil {
						if len(send) != int(hi-lo) {
							st.err = fmt.Errorf("local: node %d sent %d messages on %d ports", v, len(send), hi-lo)
							st.errNode = v
							break
						}
						msgs += t.deliverBoxed(next, dead, 0, lo, send)
					}
					for p := range recv {
						recv[p] = nil
					}
				}
				st.msgs = msgs
			}
			for sh := range work[w] {
				runShard(sh)
				barrier.Done()
			}
		}(w)
	}
	defer func() {
		for w := 0; w < nw; w++ {
			close(work[w])
		}
		lifetime.Wait()
	}()

	remaining := n
	weight := int64(n + arcs)
	bounds := make([]int, 0, nw+1)
	var stats Stats
	for r := 1; remaining > 0; r++ {
		if r > maxRounds {
			return stats, inbox, next, maxRoundsErr(maxRounds)
		}
		// Cancellation point: before round r is dispatched, so rounds
		// 1..r-1 stand and the planes are at a consistent boundary.
		if cerr := ctl.Err(); cerr != nil {
			return stats, inbox, next, cerr
		}
		stats.Rounds = r
		round = r
		// Carve the contiguous arc-balanced shards; carveShards never
		// returns an empty one.
		bounds = t.carveShards(active, remaining, weight, nw, bounds)
		launched := len(bounds) - 1
		barrier.Add(launched)
		for w := 0; w < launched; w++ {
			work[w] <- shard{bounds[w], bounds[w+1]}
		}
		barrier.Wait()
		var firstErr error
		errNode := -1
		for w := 0; w < launched; w++ {
			stats.Messages += workers[w].msgs
			workers[w].msgs = 0
			if workers[w].err != nil && (errNode < 0 || workers[w].errNode < errNode) {
				firstErr = workers[w].err
				errNode = workers[w].errNode
			}
		}
		if firstErr != nil {
			return stats, inbox, next, firstErr
		}
		// Compact the active-set in place so terminated nodes are never
		// visited again. A node that terminated this round may still have
		// received messages (its neighbors could not know it was finishing):
		// those are undeliverable, so uncount them and clear the row — after
		// the swap the new next rows are again all-nil, and no stale Message
		// pointers outlive the node.
		keep := active[:0]
		for _, v := range active[:remaining] {
			if !done[v] {
				keep = append(keep, v)
				continue
			}
			lo, hi := t.off[v], t.off[v+1]
			for i := lo; i < hi; i++ {
				if next[i] != nil {
					next[i] = nil
					stats.Messages--
				}
			}
			weight -= 1 + int64(hi-lo)
			dead[v] = true
			if fs != nil {
				fs.markDown(v)
			}
		}
		remaining = len(keep)
		if fs != nil {
			crashed := fs.boundaryBoxed(r, next, 0, &stats)
			for _, v := range crashed {
				done[v] = true
				weight -= 1 + int64(t.off[v+1]-t.off[v])
				dead[v] = true
			}
			if len(crashed) > 0 {
				keep = active[:0]
				for _, v := range active[:remaining] {
					if !done[v] {
						keep = append(keep, v)
					}
				}
				remaining = len(keep)
			}
		}
		inbox, next = next, inbox
	}
	return stats, inbox, next, nil
}

// runWord is the worker pool's word-plane fast path: the double-buffered
// planes are pointer-free []Word arrays the GC never scans, and each worker
// owns one maxDeg-sized send scratch row reused for every node of every
// round — a steady-state round performs zero heap allocations. Ownership
// and ordering are exactly those of the boxed loop: each directed edge owns
// a unique slot of the next plane, recv rows are cleared by their owner
// right after RoundW consumes them, and rows of newly-terminated nodes are
// cleared (and their messages uncounted) during compaction, so on a clean
// finish both returned planes are all-NilWord.
func (e WorkerPoolEngine) runWord(t *Topology, nodes []WordNode, maxRounds, nw int, fs *faultState, ctl *RunControl) (Stats, []Word, []Word, error) {
	n := t.N()
	arcs := len(t.adj)
	inbox := make([]Word, arcs)
	next := make([]Word, arcs)
	active := make([]int32, n)
	for v := range active {
		active[v] = int32(v)
	}
	done := make([]bool, n)
	// dead[v]: terminated in a strictly earlier round; written only by the
	// coordinator between rounds (see runBoxed).
	dead := make([]bool, n)

	workers := make([]poolWorker, nw)
	work := make([]chan shard, nw)
	round := 0
	var barrier sync.WaitGroup
	var lifetime sync.WaitGroup
	for w := 0; w < nw; w++ {
		work[w] = make(chan shard, 1)
		lifetime.Add(1)
		go func(w int) {
			defer lifetime.Done()
			st := &workers[w]
			send := make([]Word, t.maxDeg)
			// runShard executes one shard under a panic guard (see runBoxed);
			// the guard's defer sits outside the marked region below, so the
			// steady state still allocates nothing.
			curV := -1
			runShard := func(sh shard) {
				defer func() {
					if p := recover(); p != nil {
						st.err = newPanicError(curV, round, p)
						st.errNode = curV
					}
				}()
				r := round
				msgs := int64(0)
				//splitlint:zeroalloc
				for i := sh.lo; i < sh.hi; i++ {
					v := int(active[i])
					curV = v
					lo, hi := t.off[v], t.off[v+1]
					recv := inbox[lo:hi:hi]
					row := send[:hi-lo]
					if nodes[v].RoundW(r, recv, row) {
						done[v] = true
					}
					msgs += t.deliverWords(next, dead, 0, lo, row)
					for p := range recv {
						recv[p] = NilWord
					}
				}
				st.msgs = msgs
			}
			for sh := range work[w] {
				runShard(sh)
				barrier.Done()
			}
		}(w)
	}
	defer func() {
		for w := 0; w < nw; w++ {
			close(work[w])
		}
		lifetime.Wait()
	}()

	remaining := n
	weight := int64(n + arcs)
	bounds := make([]int, 0, nw+1)
	var stats Stats
	for r := 1; remaining > 0; r++ {
		if r > maxRounds {
			return stats, inbox, next, maxRoundsErr(maxRounds)
		}
		// Cancellation point: see runBoxed.
		if cerr := ctl.Err(); cerr != nil {
			return stats, inbox, next, cerr
		}
		stats.Rounds = r
		round = r
		bounds = t.carveShards(active, remaining, weight, nw, bounds)
		launched := len(bounds) - 1
		barrier.Add(launched)
		for w := 0; w < launched; w++ {
			work[w] <- shard{bounds[w], bounds[w+1]}
		}
		barrier.Wait()
		var firstErr error
		errNode := -1
		for w := 0; w < launched; w++ {
			stats.Messages += workers[w].msgs
			workers[w].msgs = 0
			if workers[w].err != nil && (errNode < 0 || workers[w].errNode < errNode) {
				firstErr = workers[w].err
				errNode = workers[w].errNode
			}
		}
		if firstErr != nil {
			return stats, inbox, next, firstErr
		}
		// Compact the active-set; see runBoxed for the invariant.
		keep := active[:0]
		for _, v := range active[:remaining] {
			if !done[v] {
				keep = append(keep, v)
				continue
			}
			lo, hi := t.off[v], t.off[v+1]
			for i := lo; i < hi; i++ {
				if next[i] != NilWord {
					next[i] = NilWord
					stats.Messages--
				}
			}
			weight -= 1 + int64(hi-lo)
			dead[v] = true
			if fs != nil {
				fs.markDown(v)
			}
		}
		remaining = len(keep)
		if fs != nil {
			crashed := fs.boundaryWord(r, next, 0, &stats)
			for _, v := range crashed {
				done[v] = true
				weight -= 1 + int64(t.off[v+1]-t.off[v])
				dead[v] = true
			}
			if len(crashed) > 0 {
				keep = active[:0]
				for _, v := range active[:remaining] {
					if !done[v] {
						keep = append(keep, v)
					}
				}
				remaining = len(keep)
			}
		}
		inbox, next = next, inbox
	}
	return stats, inbox, next, nil
}

// runBit is the worker pool's bit-plane fast path: the double-buffered
// planes are packed bit arrays (1–3 bits per arc, LLC-resident at
// million-node scale), each worker owns one maxDeg-sized packed send
// scratch row, and a steady-state round performs zero heap allocations.
// Ownership follows the boxed loop, with the bit plane's concurrency
// discipline on top (bit.go): deliveries use atomic OR (workers of
// different shards can land in the same plane word), consumed rows are
// cleared with atomic AND-NOT on their boundary words, and reads go through
// atomic loads. Rows of newly-terminated nodes are popcounted (to uncount
// their undeliverable messages) and cleared during compaction, so on a
// clean finish both returned planes are all-zero.
func (e WorkerPoolEngine) runBit(t *Topology, nodes []BitNode, width, maxRounds, nw int, fs *faultState, ctl *RunControl) (Stats, bitPlane, bitPlane, error) {
	n := t.N()
	arcs := len(t.adj)
	inbox := newBitPlane(arcs, width)
	next := newBitPlane(arcs, width)
	active := make([]int32, n)
	for v := range active {
		active[v] = int32(v)
	}
	done := make([]bool, n)
	// dead: arcs toward nodes terminated in a strictly earlier round,
	// marked in the run's delivery-table view; written only by the
	// coordinator between rounds (see runBoxed), read by workers via the
	// deliver variable set before each dispatch.
	dead := deadDeliver{t: t}
	deliver := t.deliver
	casters := asBitCasters(nodes)

	workers := make([]poolWorker, nw)
	work := make([]chan shard, nw)
	round := 0
	// wholesale: the coordinator memclrs the whole consumed plane between
	// rounds instead of the workers masking out one row per node (and
	// paying boundary atomics); set per round, read by workers after their
	// wakeup — see clearWholesale.
	wholesale := false
	// With a single worker no plane word is ever shared mid-round, so the
	// scatter and the row clears can skip the LOCK-prefixed atomics
	// entirely — on a one-core pool the bit path then matches the
	// sequential engine's instruction mix.
	par := nw > 1
	var barrier sync.WaitGroup
	var lifetime sync.WaitGroup
	for w := 0; w < nw; w++ {
		work[w] = make(chan shard, 1)
		lifetime.Add(1)
		go func(w int) {
			defer lifetime.Done()
			st := &workers[w]
			send := newBitScratch(t.maxDeg, width)
			// runShard executes one shard under a panic guard (see runBoxed);
			// the guard's defer sits outside the marked region below, so the
			// steady state still allocates nothing.
			curV := -1
			runShard := func(sh shard) {
				defer func() {
					if p := recover(); p != nil {
						st.err = newPanicError(curV, round, p)
						st.errNode = curV
					}
				}()
				r := round
				rowClear := !wholesale
				msgs := int64(0)
				//splitlint:zeroalloc
				for i := sh.lo; i < sh.hi; i++ {
					v := int(active[i])
					curV = v
					lo, hi := t.off[v], t.off[v+1]
					prefetchBitTargets(deliver, next, lo, hi)
					var fin bool
					if c := caster(casters, v); c != nil {
						val, cast, cfin := c.CastB(r, inbox.row(lo, hi))
						if cast {
							msgs += castBitRow(deliver, next, lo, hi, val, par)
						}
						fin = cfin
					} else {
						row := send.ports(int(hi - lo))
						fin = nodes[v].RoundB(r, inbox.row(lo, hi), row)
						msgs += scatterBitRow(deliver, next, lo, row, par)
					}
					if fin {
						done[v] = true
					}
					if rowClear {
						inbox.clearRow(lo, hi, par)
					}
				}
				st.msgs = msgs
			}
			for sh := range work[w] {
				runShard(sh)
				barrier.Done()
			}
		}(w)
	}
	defer func() {
		for w := 0; w < nw; w++ {
			close(work[w])
		}
		lifetime.Wait()
	}()

	remaining := n
	weight := int64(n + arcs)
	bounds := make([]int, 0, nw+1)
	var stats Stats
	for r := 1; remaining > 0; r++ {
		if r > maxRounds {
			return stats, inbox, next, maxRoundsErr(maxRounds)
		}
		// Cancellation point: see runBoxed.
		if cerr := ctl.Err(); cerr != nil {
			return stats, inbox, next, cerr
		}
		stats.Rounds = r
		round = r
		wholesale = clearWholesale(weight, n, arcs)
		deliver = dead.table()
		bounds = t.carveShards(active, remaining, weight, nw, bounds)
		launched := len(bounds) - 1
		barrier.Add(launched)
		for w := 0; w < launched; w++ {
			work[w] <- shard{bounds[w], bounds[w+1]}
		}
		barrier.Wait()
		if wholesale {
			inbox.clearAll()
		}
		var firstErr error
		errNode := -1
		for w := 0; w < launched; w++ {
			stats.Messages += workers[w].msgs
			workers[w].msgs = 0
			if workers[w].err != nil && (errNode < 0 || workers[w].errNode < errNode) {
				firstErr = workers[w].err
				errNode = workers[w].errNode
			}
		}
		if firstErr != nil {
			return stats, inbox, next, firstErr
		}
		// Compact the active-set; see runBoxed for the invariant.
		keep := active[:0]
		for _, v := range active[:remaining] {
			if !done[v] {
				keep = append(keep, v)
				continue
			}
			lo, hi := t.off[v], t.off[v+1]
			stats.Messages -= next.countRow(lo, hi)
			next.clearRow(lo, hi, false)
			weight -= 1 + int64(hi-lo)
			dead.kill(v)
			if fs != nil {
				fs.markDown(v)
			}
		}
		remaining = len(keep)
		if fs != nil {
			crashed := fs.boundaryBit(r, next, &stats)
			for _, v := range crashed {
				done[v] = true
				weight -= 1 + int64(t.off[v+1]-t.off[v])
				dead.kill(v)
			}
			if len(crashed) > 0 {
				keep = active[:0]
				for _, v := range active[:remaining] {
					if !done[v] {
						keep = append(keep, v)
					}
				}
				remaining = len(keep)
			}
		}
		inbox, next = next, inbox
	}
	return stats, inbox, next, nil
}
