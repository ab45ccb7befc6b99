// Fused-scatter tests: a BitBroadcaster program takes the fused CastB
// scatter on every engine that fuses (seq, pool, batch), and must be
// indistinguishable from the unfused scratch-row schedule GoroutineEngine
// runs.
package local_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

// castTail is the fused-path stress program: a BitBroadcaster with the
// shattering-shaped round structure — most nodes terminate within three
// rounds, a sparse residual keeps broadcasting for a long tail — so runs
// exercise the fused scatter under attrition, dead-arc drops and
// retirement of nodes that still receive, all at once.
type castTail struct {
	v    local.View
	acc  uint64
	stop int
	out  []uint64
	idx  int
}

func (n *castTail) CastB(r int, recv local.BitRow) (uint64, bool, bool) {
	n.acc = n.acc*1099511628211 + uint64(recv.CountPresent())<<8 ^ uint64(recv.CountValue(1))
	if r >= n.stop {
		n.out[n.idx] = n.acc
		return uint64(r) & 1, true, true // parting broadcast on the way out
	}
	return (n.acc ^ uint64(r)) & 1, true, false
}

func (n *castTail) RoundB(r int, recv, send local.BitRow) bool {
	v, cast, done := n.CastB(r, recv)
	if cast {
		send.Broadcast(v)
	}
	return done
}

// castTailFactory gives node v a stop round of 2+v%3 rounds, with every
// 37th node surviving to the full tail.
func castTailFactory(tail int, out []uint64) local.Factory {
	idx := 0
	return func(v local.View) local.Node {
		stop := 2 + idx%3
		if idx%37 == 0 {
			stop = tail
		}
		n := &castTail{v: v, stop: stop, out: out, idx: idx}
		idx++
		return local.BitProgram(n)
	}
}

// TestFusedCasterEquivalence runs the fused-path stress program under every
// engine and compares outputs and Stats against the unfused GoroutineEngine
// reference: the fused CastB path and the prefetched scatters must be
// indistinguishable from the plain scratch-row schedule.
func TestFusedCasterEquivalence(t *testing.T) {
	t.Parallel()
	g := graph.RandomGraph(240, 0.04, prob.NewSource(17).Rand())
	topo := local.NewTopology(g)
	n := g.N()
	const tail = 50
	ref := make([]uint64, n)
	refStats, err := local.GoroutineEngine{}.Run(
		topo, castTailFactory(tail, ref), local.Options{Source: prob.NewSource(8)})
	if err != nil {
		t.Fatal(err)
	}
	if refStats.Rounds != tail {
		t.Fatalf("reference ran %d rounds, want the %d-round tail", refStats.Rounds, tail)
	}
	for _, eng := range allEngines() {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			t.Parallel()
			out := make([]uint64, n)
			stats, err := eng.e.Run(topo, castTailFactory(tail, out), local.Options{Source: prob.NewSource(8)})
			if err != nil {
				t.Fatal(err)
			}
			if stats != refStats {
				t.Errorf("stats %+v, want %+v", stats, refStats)
			}
			for v := range out {
				if out[v] != ref[v] {
					t.Errorf("node %d output %#x, want %#x", v, out[v], ref[v])
					break
				}
			}
		})
	}
}
