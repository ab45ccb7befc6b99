package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// runCompare reads the records of a parent and of a change, given as
// "parent.jsonl,change.jsonl", and prints a verdict per workload and
// metric. Records pair up in file order, so the two files should come from
// alternating runs.
func runCompare(arg string) int {
	paths := strings.Split(arg, ",")
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "perfbench: -compare takes parent.jsonl,change.jsonl")
		return 2
	}
	var sides [2][]*record
	for i, p := range paths {
		recs, err := readRecords(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		sides[i] = recs
	}
	fmt.Print(compareReport(sides[0], sides[1]))
	return 0
}

// compareReport renders the comparison of two record sets.
func compareReport(oldRecs, newRecs []*record) string {
	var b strings.Builder
	newBy := map[string]group{}
	for _, g := range groupRecords(newRecs) {
		newBy[g.workload] = g
	}
	for _, og := range groupRecords(oldRecs) {
		ng, ok := newBy[og.workload]
		if !ok {
			fmt.Fprintf(&b, "== %s: no runs of the change\n", og.workload)
			continue
		}
		fmt.Fprintf(&b, "== %s: %d parent runs, %d change runs\n", og.workload, len(og.recs), len(ng.recs))
		for _, d := range append(endToEnd, perLayer...) {
			ov, nv := og.values(d.name), ng.values(d.name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			oq1, oq3 := quartiles(ov)
			nq1, nq3 := quartiles(nv)
			mo, mn := median(ov), median(nv)
			fmt.Fprintf(&b, "   %-22s parent %12.4f [%.4f, %.4f]  change %12.4f [%.4f, %.4f]  %+7.2f%%  %s\n",
				d.name, mo, oq1, oq3, mn, nq1, nq3, 100*(mn-mo)/math.Abs(mo), verdict(ov, nv, d.lowerBetter, d.bound))
		}
	}
	return b.String()
}

// group is one workload's records, in file order.
type group struct {
	workload string
	recs     []*record
}

func (g group) values(name string) []float64 {
	var vals []float64
	for _, r := range g.recs {
		if m, ok := r.Metrics[name]; ok {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// groupRecords splits records by workload and mode, keeping first-seen
// order; traced runs form their own group.
func groupRecords(recs []*record) []group {
	var out []group
	idx := map[string]int{}
	for _, r := range recs {
		key := r.Workload
		if r.Traced {
			key += " (traced)"
		}
		i, ok := idx[key]
		if !ok {
			i = len(out)
			idx[key] = i
			out = append(out, group{workload: key})
		}
		out[i].recs = append(out[i].recs, r)
	}
	return out
}

// readRecords reads a JSON-lines file of records.
func readRecords(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		r := &record{}
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}
