// Command perfbench is the repository's end-to-end benchmark. It times
// three workloads a user runs — Theorem 2.5 on resident instances, the
// Lemma 4.1 coloring, and closed-loop sweeps through the wsplitd service —
// checks every output, and prints each metric with its unit and sample
// count; the last line of standard output is one JSON object. A traced run
// (-trace 1) rebuilds each op from the public calls it makes and reports
// per-layer numbers instead. See README.md.
//
//	perfbench -workload det-resident -seed 1 -seconds 35 -trace 0
//	perfbench -workload all -seconds 35
//	perfbench -steady 5 -workload color-split -out runs.jsonl
//	perfbench -compare parent.jsonl,change.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 35, "length of the timed window")
	trace := fs.Int("trace", 0, "1 runs the traced op and reports per-layer metrics; spans go to .bench_build/spans/<workload>-<seed>.jsonl")
	out := fs.String("out", "", "append each run's record (metadata and metrics) to this JSON-lines file")
	steady := fs.Int("steady", 0, "repeat each workload this many times, seeds seed, seed+1, …, and print each metric's spread against its bound")
	compare := fs.String("compare", "", "compare two record files, parent.jsonl,change.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if *compare != "" {
		return runCompare(*compare)
	}
	defs, err := selectWorkloads(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		return 2
	}
	if *steady > 0 {
		return runSteady(defs, *seed, *seconds, *trace == 1, *steady, *out)
	}

	// One process runs every selected workload; the last line carries all
	// of their metrics (prefixed by workload when there are several).
	final := lastLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, def := range defs {
		rec, err := measure(def, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
			return 1
		}
		printRecord(os.Stdout, rec)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
		}
		final.Correct = final.Correct && rec.Correct
		final.Attempted += rec.Attempted
		final.Failed += rec.Failed
		for k, v := range rec.Metrics {
			if len(defs) > 1 {
				k = def.name + "/" + k
			}
			final.Metrics[k] = metricValue{Value: v.Value, Unit: v.Unit}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// selectWorkloads resolves "all" or a comma-separated list of names.
func selectWorkloads(name string) ([]workloadDef, error) {
	if name == "all" {
		return workloads, nil
	}
	var defs []workloadDef
	for _, n := range strings.Split(name, ",") {
		def, ok := findWorkload(n)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have %s)", n, strings.Join(workloadNames(), ", "))
		}
		defs = append(defs, def)
	}
	return defs, nil
}

// lastLine is the result object printed as the last line of output.
type lastLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
