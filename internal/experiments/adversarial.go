package experiments

import (
	"fmt"

	"halo/internal/adversary"
	"halo/internal/measure"
	"halo/internal/workloads"
)

// below reports whether sample a sits below sample b beyond the noise the
// trials themselves show: a's 75th percentile is under b's 25th, so the
// two interquartile ranges do not overlap.
func below(a, b measure.Quartiles) bool { return a.P75 < b.P25 }

// verdictOf classifies s against base on both L1D misses and cycle-model
// time. It is the one verdict every table and BenchResult reports.
// defeated: the group allocator served allocations but grouped none.
// REGRESSED: either metric measurably worse. helped: either metric
// measurably better and neither worse. neutral: both differences inside
// the noise band.
func verdictOf(base, s measure.Summary) string {
	switch {
	case s.Median.GroupedAllocs == 0 && s.Median.ForwardedAlloc > 0:
		return "defeated"
	case below(base.L1DMiss, s.L1DMiss) || below(base.Seconds, s.Seconds):
		return "REGRESSED"
	case below(s.L1DMiss, base.L1DMiss) || below(s.Seconds, base.Seconds):
		return "helped"
	}
	return "neutral"
}

// verdictNote explains verdictOf's column in every table that prints it.
const verdictNote = "verdict: a difference counts when the trials' interquartile ranges do not overlap; " +
	"helped = fewer misses or less time and neither worse; REGRESSED = more misses or more time; " +
	"neutral = no difference; defeated = grouping never engaged"

// Adversarial evaluates the hostile-heap workload family end to end: each
// generated scenario runs the full pipeline and is measured HALO vs the
// jemalloc baseline, reporting where grouping helps, is neutral, hurts
// (REGRESSED) or is defeated (verdictOf), plus a corruption verdict — the
// scenario's flattened heap-op stream replayed against the group
// allocator under the shadow-heap oracle, with the workload's own
// allocator tuning.
func (e *Engine) Adversarial() (*Table, error) {
	list := e.adversarialList()
	t := &Table{
		ID:    "adversarial",
		Title: "adversarial workloads: HALO vs jemalloc baseline (hostile-heap family)",
		Columns: []string{"workload", "grouped allocs", "miss reduction (%)",
			"speedup (%)", "frag@peak (%)", "verdict", "corruption"},
	}
	t.Notes = append(t.Notes, verdictNote,
		"corruption: the scenario's heap-op stream replayed under the shadow-heap oracle (clean = zero findings)")
	rows := make([][]string, len(list))
	err := e.forEachWorkload(list, func(i int, w workloads.Workload) error {
		a, err := e.artefactsFor(w)
		if err != nil {
			return err
		}
		base, err := e.summaryFor(a, "jemalloc", a.polBase)
		if err != nil {
			return err
		}
		halo, err := e.summaryFor(a, "halo", a.polHALO)
		if err != nil {
			return err
		}
		missRed := measure.Improvement(base.L1DMiss.Median, halo.L1DMiss.Median)
		speedup := measure.Improvement(base.Seconds.Median, halo.Seconds.Median)
		corruption := "clean"
		seq := workloads.AdvSequence(w.Name)
		if _, err := adversary.ReplayChecked(
			seq.HeapOps(8),
			adversary.ReplayConfig{Name: w.Name, Halloc: hallocConfig(w), Groups: 4},
		); err != nil {
			corruption = "CORRUPT: " + err.Error()
		}
		rows[i] = []string{
			w.Name,
			fmt.Sprintf("%d", halo.Median.GroupedAllocs),
			fmt.Sprintf("%+.2f", missRed),
			fmt.Sprintf("%+.2f", speedup),
			fmt.Sprintf("%.1f", halo.Median.FragPct),
			verdictOf(base, halo),
			corruption,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}
