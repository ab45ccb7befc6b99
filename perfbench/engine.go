package main

import "repro/internal/local"

// timedEngine wraps the sequential engine the way the service's counting
// engine does, and on a traced op records each Engine.Run call as a
// local.run span. The wrapped engine's stats and errors pass through untouched.
type timedEngine struct {
	e  local.SequentialEngine
	tr *tracer

	runs     int64
	rounds   int64
	messages int64
}

// Run implements local.Engine.
func (te *timedEngine) Run(t *local.Topology, f local.Factory, opts local.Options) (local.Stats, error) {
	id := te.tr.begin("local.run")
	stats, err := te.e.Run(t, f, opts)
	te.tr.end(id)
	te.runs++
	te.rounds += int64(stats.Rounds)
	te.messages += stats.Messages
	return stats, err
}

// work is the engine's exact work since the last reset.
type work struct{ runs, rounds, messages int64 }

func (te *timedEngine) take() work {
	w := work{te.runs, te.rounds, te.messages}
	te.runs, te.rounds, te.messages = 0, 0, 0
	return w
}
