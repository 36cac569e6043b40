package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges b against base a for one end-to-end metric. A worsening
// (as a share of a) past the bound is a regression only if both runs were
// steadier than the bound over their own segments; otherwise the pair cannot
// tell, and says so.
func verdict(def metricDef, a, b, spreadA, spreadB float64) string {
	worse := (b - a) / a
	if def.better == "higher" {
		worse = (a - b) / a
	}
	switch {
	case worse <= def.bound:
		return "ok"
	case spreadA > def.bound || spreadB > def.bound:
		return "unresolved"
	default:
		return "regressed"
	}
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// records, b against base a, and returns 1 if any row regressed.
func compareFiles(pathA, pathB string, out io.Writer) int {
	var reports [2]*report
	for i, path := range []string{pathA, pathB} {
		r, err := readReport(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		reports[i] = r
	}
	return compareReports(reports[0], reports[1], out)
}

func compareReports(a, b *report, out io.Writer) int {
	byName := map[string]*result{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	code := 0
	fmt.Fprintf(out, "%-12s %-12s %14s %14s %16s  %s\n", "workload", "metric", "a", "b", "b/a (base a)", "verdict")
	for _, ra := range a.Workloads {
		rb := byName[ra.Workload]
		if rb == nil {
			fmt.Fprintf(out, "%-12s missing from b: regressed\n", ra.Workload)
			code = 1
			continue
		}
		for _, def := range endToEndDefs {
			va, vb := ra.Metrics[def.name].Value, rb.Metrics[def.name].Value
			v := verdict(def, va, vb, ra.Spread[def.name], rb.Spread[def.name])
			fmt.Fprintf(out, "%-12s %-12s %14.4f %14.4f %16.4f  %s\n", ra.Workload, def.name, va, vb, vb/va, v)
			if v == "regressed" {
				code = 1
			}
		}
		// Any increase in the share of failed operations is a regression.
		fa, fb := float64(ra.Failed)/float64(ra.Attempted), float64(rb.Failed)/float64(rb.Attempted)
		v := "ok"
		if fb > fa {
			v, code = "regressed", 1
		}
		fmt.Fprintf(out, "%-12s %-12s %14.6f %14.6f %16s  %s\n", ra.Workload, "ops_failed", fa, fb, "share of ops", v)
	}
	return code
}
