package harness

import (
	"fmt"
	"io"
	"strings"
)

// PrintTable renders rows as an aligned text table grouped by figure and
// dataset, in the spirit of the paper's plots: one line per
// (method, parameter) with the median over passes of the mean query
// latency, the passes' interquartile range, and workload statistics.
func PrintTable(w io.Writer, rows []Row) {
	if len(rows) == 0 {
		fmt.Fprintln(w, "(no rows)")
		return
	}
	type key struct{ fig, ds string }
	groups := map[key][]Row{}
	var order []key
	for _, r := range rows {
		k := key{r.Figure, r.Dataset}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	for _, k := range order {
		fmt.Fprintf(w, "\n== Figure %s — %s ==\n", k.fig, k.ds)
		g := groups[k]
		if k.fig == "8" {
			printFig8(w, g)
			continue
		}
		fmt.Fprintf(w, "%-12s %-14s %14s %10s %12s %14s\n",
			"method", "param", "avg query ms", "iqr ms", "avg results", "avg candidates")
		for _, r := range g {
			if r.Param == "saved" { // Figure 5l's summary: what one index saves
				fmt.Fprintf(w, "%-12s %-14s %s of index and %.0f ms of build\n", r.Method, r.Param, humanBytes(r.MemBytes), r.BuildMs)
				continue
			}
			fmt.Fprintf(w, "%-12s %-14s %14.3f %10.3f %12.1f %14.1f\n",
				r.Method, r.Param, r.AvgQueryMs, r.QueryMsIQR, r.AvgResults, r.AvgCandidates)
		}
	}
}

func printFig8(w io.Writer, g []Row) {
	fmt.Fprintf(w, "%-12s %16s %14s %10s\n", "method", "memory", "build time", "iqr ms")
	for _, r := range g {
		fmt.Fprintf(w, "%-12s %16s %11.0f ms %10.1f\n", r.Method, humanBytes(r.MemBytes), r.BuildMs, r.BuildMsIQR)
	}
}

func humanBytes(b int) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// PrintCSV renders rows as CSV for downstream plotting.
func PrintCSV(w io.Writer, rows []Row) {
	fmt.Fprintln(w, "figure,dataset,method,param,avg_query_ms,query_ms_iqr,passes,avg_results,avg_candidates,build_ms,mem_bytes,build_ms_iqr,q1_ms,q3_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%s,%s,%s,%s,%.6f,%.6f,%d,%.2f,%.2f,%.3f,%d,%.3f,%.6f,%.6f\n",
			r.Figure, r.Dataset, r.Method, csvEscape(r.Param), r.AvgQueryMs, r.QueryMsIQR, r.Passes, r.AvgResults, r.AvgCandidates, r.BuildMs, r.MemBytes,
			r.BuildMsIQR, r.Q1Ms, r.Q3Ms)
	}
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
