package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// Verdicts of one metric x workload comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved" // the runs scatter wider than the bound
)

// compareRow is one line of the comparison table.
type compareRow struct {
	Workload, Metric string
	Old, New         float64 // medians over the runs
	Change           float64 // relative, positive = better
	Spread           float64 // the wider of the two sides' IQR/median
	Bound            float64
	Verdict          string
}

// compareDocs applies each end-to-end metric's direction and bound to every
// workload present in both documents. A metric is regressed when the new
// median is worse than the old by more than the bound, improved when better
// by more than the bound. When either side's run-to-run spread exceeds the
// bound the difference cannot be told from noise and the row is unresolved,
// unless every new run sits on one side of every old run.
func compareDocs(spec *benchSpec, oldDoc, newDoc *document) (rows []compareRow, failRise []string) {
	olds := map[string]*workloadDoc{}
	for i := range oldDoc.Workloads {
		olds[oldDoc.Workloads[i].Name] = &oldDoc.Workloads[i]
	}
	for i := range newDoc.Workloads {
		nw := &newDoc.Workloads[i]
		ow, ok := olds[nw.Name]
		if !ok {
			continue
		}
		for _, m := range spec.EndToEnd {
			ov, nv := ow.values(m.Name), nw.values(m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			row := compareRow{Workload: nw.Name, Metric: m.Name, Old: median(ov), New: median(nv), Bound: m.Bound}
			if row.Old != 0 {
				row.Change = (row.New - row.Old) / row.Old
			}
			if m.Better == "lower" {
				row.Change = -row.Change
			}
			row.Spread = max(iqrShare(ov), iqrShare(nv))
			sort.Float64s(ov)
			sort.Float64s(nv)
			disjoint := nv[0] > ov[len(ov)-1] || nv[len(nv)-1] < ov[0]
			switch {
			case row.Spread > m.Bound && !disjoint:
				row.Verdict = unresolved
			case row.Change < -m.Bound:
				row.Verdict = regressed
			case row.Change > m.Bound:
				row.Verdict = improved
			default:
				row.Verdict = unchanged
			}
			rows = append(rows, row)
		}
		if o, n := failRatio(ow), failRatio(nw); n > o {
			failRise = append(failRise, fmt.Sprintf("%s: fail_ratio rose from %g to %g", nw.Name, o, n))
		}
	}
	return rows, failRise
}

// failRatio is failed over attempted, summed over a workload's runs.
func failRatio(w *workloadDoc) float64 {
	failed, attempted := 0, 0
	for _, r := range w.Runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareFiles prints the comparison table and returns the exit status: 1
// on any regression or any rise in fail_ratio.
func compareFiles(w io.Writer, spec *benchSpec, oldPath, newPath string) int {
	oldDoc, err := readDocument(oldPath)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	newDoc, err := readDocument(newPath)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	rows, failRise := compareDocs(spec, oldDoc, newDoc)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tchange\tspread\tbound\tverdict")
	status := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
			r.Workload, r.Metric, r.Old, r.New, 100*r.Change, 100*r.Spread, 100*r.Bound, r.Verdict)
		if r.Verdict == regressed {
			status = 1
		}
	}
	tw.Flush()
	for _, f := range failRise {
		fmt.Fprintln(w, f)
		status = 1
	}
	return status
}
