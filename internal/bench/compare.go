package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// LoadJSONReport reads a report written by FormatJSON (e.g. the
// committed BENCH_baseline.json snapshot).
func LoadJSONReport(r io.Reader) (*JSONReport, error) {
	var rep JSONReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("bench: decoding report: %w", err)
	}
	if len(rep.Cases) == 0 {
		return nil, fmt.Errorf("bench: report without cases")
	}
	return &rep, nil
}

// CompareOptions sets the drift tolerances of Compare, as fractions of
// the baseline value.
type CompareOptions struct {
	// PlanTol bounds created-plans and final-plans drift (a failure
	// beyond it). Plan counts are deterministic for fixed seeds, so the
	// default is exact.
	PlanTol float64
	// LPTol bounds solved-LP drift (a failure beyond it). LP counts are
	// deterministic too, but a small tolerance leaves room for
	// intentional fast-path changes; drift beyond it must be a
	// conscious baseline update.
	LPTol float64
	// TimeTol bounds time drift; beyond it Compare only warns, since
	// wall-clock time is machine- and load-dependent.
	TimeTol float64
}

// DefaultCompareOptions returns the CI gate tolerances.
func DefaultCompareOptions() CompareOptions {
	return CompareOptions{PlanTol: 0, LPTol: 0.02, TimeTol: 0.75}
}

// Drift is one detected deviation between a baseline case and the
// current run.
type Drift struct {
	// Case is the baseline case name.
	Case string
	// Field names the drifted quantity.
	Field string
	// Baseline and Current are the compared values.
	Baseline, Current float64
	// Tolerance is the allowed relative drift.
	Tolerance float64
	// WarnOnly marks drifts that do not fail the gate (time).
	WarnOnly bool
}

func (d Drift) String() string {
	kind := "FAIL"
	if d.WarnOnly {
		kind = "warn"
	}
	return fmt.Sprintf("%s %s %s: baseline %.3f, current %.3f (drift %.1f%%, tolerance %.1f%%)",
		kind, d.Case, d.Field, d.Baseline, d.Current,
		100*relDrift(d.Baseline, d.Current), 100*d.Tolerance)
}

// Compare diffs the current report against a baseline. Every baseline
// case must be present in the current report with the same worker
// count. ε > 0 rows gate on their certified max regret staying within
// the (1+ε) contract; every other row gates on plan-count, LP-count and
// shared-hit-rate drift beyond tolerance. Time drift only warns. Extra
// current cases are ignored (the baseline defines the gate's
// coverage); ParallelCases are informational and never compared.
func Compare(baseline, current *JSONReport, opts CompareOptions) (failures, warnings []Drift) {
	byName := make(map[string]JSONCase, len(current.Cases))
	for _, c := range current.Cases {
		byName[c.Case] = c
	}
	for _, base := range baseline.Cases {
		cur, ok := byName[base.Case]
		if !ok {
			failures = append(failures, Drift{Case: base.Case, Field: "missing"})
			continue
		}
		if cur.Workers != base.Workers {
			// Different worker counts still produce identical counts
			// (the parallel-wavefront determinism guarantee), but time
			// is incomparable; record it as a failure so the gate is
			// run with the baseline's configuration.
			failures = append(failures, Drift{
				Case: base.Case, Field: "workers",
				Baseline: float64(base.Workers), Current: float64(cur.Workers),
			})
			continue
		}
		check := func(field string, b, c, tol float64, warnOnly bool) {
			if relDrift(b, c) <= tol {
				return
			}
			d := Drift{Case: base.Case, Field: field, Baseline: b, Current: c, Tolerance: tol, WarnOnly: warnOnly}
			if warnOnly {
				warnings = append(warnings, d)
			} else {
				failures = append(failures, d)
			}
		}
		if base.Epsilon > 0 {
			// Approximate rows trade the exact-count gate for the
			// certified approximation contract: the ε tier must be
			// configured identically and its measured worst regret must
			// stay within (1+ε). Plan and LP counts of these rows shift
			// whenever the prune order or the per-level factor
			// allocation is tuned — the contract is the invariant, not a
			// particular count.
			if cur.Epsilon != base.Epsilon {
				failures = append(failures, Drift{
					Case: base.Case, Field: "epsilon",
					Baseline: base.Epsilon, Current: cur.Epsilon,
				})
				continue
			}
			if bound := (1 + base.Epsilon) * (1 + 1e-9); cur.MaxRegret > bound {
				failures = append(failures, Drift{
					Case: base.Case, Field: "max_regret",
					Baseline: bound, Current: cur.MaxRegret,
				})
			}
			check("time_ms", base.TimeMs, cur.TimeMs, opts.TimeTol, true)
			continue
		}
		check("created_plans", float64(base.CreatedPlans), float64(cur.CreatedPlans), opts.PlanTol, false)
		check("final_plans", float64(base.FinalPlans), float64(cur.FinalPlans), opts.PlanTol, false)
		check("solved_lps", float64(base.SolvedLPs), float64(cur.SolvedLPs), opts.LPTol, false)
		// Fleet cases carry the shared-store hit rate; it is exact by
		// construction ((N−1)/N), so it shares the plan tolerance. Rows
		// without a rate compare 0 against 0.
		check("shared_hit_rate", base.SharedHitRate, cur.SharedHitRate, opts.PlanTol, false)
		check("time_ms", base.TimeMs, cur.TimeMs, opts.TimeTol, true)
	}
	return failures, warnings
}

// relDrift is |current-baseline| relative to the baseline (at least 1,
// so zero baselines do not divide by zero).
func relDrift(baseline, current float64) float64 {
	return math.Abs(current-baseline) / math.Max(math.Abs(baseline), 1)
}
