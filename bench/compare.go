package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// verdict of one (workload, metric) row.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareRow is one row of the comparison: both sides' median and
// quartiles, the relative change (positive = worse), and the verdict.
type compareRow struct {
	Workload, Metric       string
	OldMed, OldQ1, OldQ3   float64
	NewMed, NewQ1, NewQ3   float64
	Change, Bound, OldIQRs float64
	Verdict                string
}

// judge compares the runs of one end-to-end metric. The change is the
// difference of the medians as a share of the old median, signed so that
// positive is worse. A parent whose own quartile spread exceeds the bound
// cannot resolve a change of that size: unresolved. Otherwise worse is a
// change beyond the bound, better an improvement beyond the parent's own
// spread, and anything in between is the same.
func judge(d metricDef, old, cur []float64) compareRow {
	r := compareRow{Metric: d.Name, Bound: d.Bound}
	r.OldMed, r.NewMed = median(old), median(cur)
	r.OldQ1, r.OldQ3 = quartiles(old)
	r.NewQ1, r.NewQ3 = quartiles(cur)
	r.Change = (r.NewMed - r.OldMed) / r.OldMed
	if d.Better == "higher" {
		r.Change = -r.Change
	}
	r.OldIQRs = (r.OldQ3 - r.OldQ1) / r.OldMed
	switch {
	case r.OldIQRs > d.Bound:
		r.Verdict = verdictUnresolved
	case r.Change > d.Bound:
		r.Verdict = verdictWorse
	case r.Change < -r.OldIQRs && r.Change < 0:
		r.Verdict = verdictBetter
	default:
		r.Verdict = verdictSame
	}
	return r
}

// judgeCount compares an exact count of the traced run (metricDef.Exact:
// the ones that depend on the inputs alone, not on how fast the run went),
// which must repeat exactly: any difference is reported, in the direction the metric declares.
func judgeCount(d metricDef, old, cur float64) compareRow {
	r := compareRow{Metric: d.Name, OldMed: old, NewMed: cur, OldQ1: old, OldQ3: old, NewQ1: cur, NewQ3: cur, Verdict: verdictSame}
	if old != cur {
		r.Verdict = verdictWorse
		if (cur < old) == (d.Better == "lower") {
			r.Verdict = verdictBetter
		}
		if old != 0 {
			r.Change = (cur - old) / old
		}
	}
	return r
}

func loadResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects metric name of workload w over the runs of f, end-to-end
// runs or the traced one.
func (f *resultFile) values(w, name string, traced bool) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if v, ok := r.Metrics[name]; ok && r.Workload == w && r.Trace == traced && v.N > 0 {
			out = append(out, v.Value)
		}
	}
	return out
}

// compareResults builds the rows for every workload both files ran: one per
// end-to-end metric, and one per exact count of the traced runs.
func compareResults(old, cur *resultFile) []compareRow {
	var rows []compareRow
	for _, w := range workloads {
		for _, d := range endToEnd {
			o, n := old.values(w.Name, d.Name, false), cur.values(w.Name, d.Name, false)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			r := judge(d, o, n)
			r.Workload = w.Name
			rows = append(rows, r)
		}
		for _, d := range perLayer {
			o, n := old.values(w.Name, d.Name, true), cur.values(w.Name, d.Name, true)
			if !d.Exact || len(o) == 0 || len(n) == 0 {
				continue
			}
			r := judgeCount(d, o[0], n[0])
			r.Workload = w.Name
			rows = append(rows, r)
		}
	}
	return rows
}

// compareFiles prints the comparison of two result files. It refuses files
// whose environment headers differ, and exits non-zero when any row is worse.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	old, err := loadResult(oldPath)
	if err != nil {
		return fail(err)
	}
	cur, err := loadResult(newPath)
	if err != nil {
		return fail(err)
	}
	if field := old.Env.comparableWith(cur.Env); field != "" {
		return fail(fmt.Errorf("refusing to compare: the environment headers differ in %s", field))
	}
	fmt.Fprintf(w, "old %s\nnew %s\n", old.Env.Revision, cur.Env.Revision)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median [q1, q3]\tnew median [q1, q3]\tchange (+ = worse)\tbound\tverdict")
	worse := false
	for _, r := range compareResults(old, cur) {
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%.0f%%\t%s\n",
			r.Workload, r.Metric, r.OldMed, r.OldQ1, r.OldQ3, r.NewMed, r.NewQ1, r.NewQ3,
			100*r.Change, 100*r.Bound, r.Verdict)
		worse = worse || r.Verdict == verdictWorse
	}
	if err := tw.Flush(); err != nil {
		return fail(err)
	}
	if worse {
		return 1
	}
	return 0
}
