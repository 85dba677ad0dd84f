package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readResults loads a results.jsonl file: one result per line, grouped
// by workload in first-seen order. Traced and smoke runs are skipped —
// only plain runs carry comparable end-to-end numbers.
func readResults(path string) (map[string][]*result, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	by := map[string][]*result{}
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		res := &result{}
		if err := json.Unmarshal(sc.Bytes(), res); err != nil {
			return nil, nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if res.Stamp.Traced || res.Stamp.Smoke {
			continue
		}
		if _, seen := by[res.Workload]; !seen {
			order = append(order, res.Workload)
		}
		by[res.Workload] = append(by[res.Workload], res)
	}
	return by, order, sc.Err()
}

func values(rs []*result, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.EndToEnd[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareFiles prints, per workload, each end-to-end metric's change
// from file a (the parent) to file b against the metric's bound. Where
// either side's own runs spread wider than the bound the row says
// unresolved: the two medians cannot be told apart at that bound.
func compareFiles(w io.Writer, a, b string) error {
	ra, order, err := readResults(a)
	if err != nil {
		return err
	}
	rb, _, err := readResults(b)
	if err != nil {
		return err
	}
	for _, wl := range order {
		as, bs := ra[wl], rb[wl]
		if len(bs) == 0 {
			fmt.Fprintf(w, "%s: no runs in %s\n", wl, b)
			continue
		}
		fmt.Fprintf(w, "%s  (%d runs vs %d runs; seeds %v vs %v)\n", wl, len(as), len(bs), seeds(as), seeds(bs))
		fmt.Fprintf(w, "  %-16s %12s %8s %12s %8s %9s %7s  %s\n", "metric", "a median", "a iqr", "b median", "b iqr", "change", "bound", "verdict")
		for _, d := range endToEnd {
			va, vb := values(as, d.name), values(bs, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			sa, sb := iqrFrac(va), iqrFrac(vb)
			change := (mb - ma) / ma
			worse := change
			if d.better == "higher" {
				worse = -change
			}
			verdict := "within bound"
			switch {
			case len(va) < 4 || len(vb) < 4:
				verdict = "unresolved (fewer than 4 runs on a side: spread unknown)"
			case sa > d.bound || sb > d.bound:
				verdict = "unresolved (run-to-run spread exceeds the bound)"
			case worse > d.bound:
				verdict = "REGRESSION"
			case worse < -d.bound:
				verdict = "better by more than the bound"
			}
			fmt.Fprintf(w, "  %-16s %12.5g %7.1f%% %12.5g %7.1f%% %+8.1f%% %6.0f%%  %s\n",
				d.name, ma, 100*sa, mb, 100*sb, 100*change, 100*d.bound, verdict)
		}
	}
	return nil
}

func seeds(rs []*result) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, r := range rs {
		if !seen[r.Stamp.Seed] {
			seen[r.Stamp.Seed] = true
			out = append(out, r.Stamp.Seed)
		}
	}
	return out
}
