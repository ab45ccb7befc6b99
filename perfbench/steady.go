package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// runSteady repeats each workload n times, each run a fresh process with
// its own seed, and prints each metric's spread — interquartile range over
// median — against its bound.
// A spread below a third of the bound is steady; below the bound,
// marginal; above it, too noisy to gate on.
func runSteady(defs []workloadDef, seed uint64, seconds float64, traced bool, n int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if out == "" {
		out = fmt.Sprintf(".bench_build/steady-%d.jsonl", os.Getpid())
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	before, err := readRecords(out)
	if err != nil && !os.IsNotExist(err) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	status := 0
	for _, def := range defs {
		for k := 0; k < n; k++ {
			cmd := exec.Command(self, "-workload", def.name, "-seed", fmt.Sprint(seed+uint64(k)),
				"-seconds", fmt.Sprint(seconds), "-trace", trace, "-out", out)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			fmt.Printf("%s seed %d: %s\n", def.name, seed+uint64(k), lines[len(lines)-1])
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", def.name, seed+uint64(k), err)
				status = 1
			}
		}
	}
	all, err := readRecords(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printSpreads(all[len(before):])
	return status
}

// printSpreads prints, per workload and metric, the runs' median, quartiles
// and spread against the metric's bound.
func printSpreads(recs []*record) {
	for _, g := range groupRecords(recs) {
		fmt.Printf("== %s: %d runs\n", g.workload, len(g.recs))
		for _, d := range append(endToEnd, perLayer...) {
			vals := g.values(d.name)
			if len(vals) == 0 {
				continue
			}
			q1, q3 := quartiles(vals)
			sp := spread(vals)
			state := "no bound"
			switch {
			case d.bound == 0:
			case sp < d.bound/3:
				state = "steady"
			case sp < d.bound:
				state = "marginal"
			default:
				state = "TOO NOISY"
			}
			fmt.Printf("   %-22s median %12.4f %-5s q1 %12.4f q3 %12.4f spread %6.2f%% bound %5.1f%%  %s\n",
				d.name, median(vals), d.unit, q1, q3, 100*sp, 100*d.bound, state)
		}
	}
}
