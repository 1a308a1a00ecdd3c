package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"mpq/internal/workload"
)

func reportWith(cases ...JSONCase) *JSONReport {
	return &JSONReport{Experiment: "figure12", Cases: cases}
}

func baseCase() JSONCase {
	return JSONCase{
		Case: "chain-1p/tables=4", Shape: "chain", Params: 1, Tables: 4,
		TimeMs: 1.2, CreatedPlans: 73, SolvedLPs: 967, FinalPlans: 3,
		Workers: 1, Repetitions: 3,
	}
}

func TestCompareIdenticalReports(t *testing.T) {
	base := reportWith(baseCase())
	failures, warnings := Compare(base, reportWith(baseCase()), DefaultCompareOptions())
	if len(failures) != 0 || len(warnings) != 0 {
		t.Errorf("identical reports: failures=%v warnings=%v", failures, warnings)
	}
}

func TestCompareDriftClassification(t *testing.T) {
	opts := DefaultCompareOptions()
	cases := []struct {
		name     string
		mutate   func(*JSONCase)
		failWith string
		warnWith string
	}{
		{
			name:     "plan count drift fails",
			mutate:   func(c *JSONCase) { c.CreatedPlans += 1 },
			failWith: "created_plans",
		},
		{
			name:     "final plan drift fails",
			mutate:   func(c *JSONCase) { c.FinalPlans -= 1 },
			failWith: "final_plans",
		},
		{
			name:     "lp drift beyond tolerance fails",
			mutate:   func(c *JSONCase) { c.SolvedLPs += int64(float64(c.SolvedLPs)*opts.LPTol) + 10 },
			failWith: "solved_lps",
		},
		{
			name:   "lp drift within tolerance passes",
			mutate: func(c *JSONCase) { c.SolvedLPs += 5 }, // 5/967 < 2%
		},
		{
			name:     "time drift only warns",
			mutate:   func(c *JSONCase) { c.TimeMs *= 10 },
			warnWith: "time_ms",
		},
		{
			name:     "worker mismatch fails",
			mutate:   func(c *JSONCase) { c.Workers = 8 },
			failWith: "workers",
		},
		{
			name:     "missing case fails",
			mutate:   func(c *JSONCase) { c.Case = "renamed" },
			failWith: "missing",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := baseCase()
			tc.mutate(&cur)
			failures, warnings := Compare(reportWith(baseCase()), reportWith(cur), opts)
			if tc.failWith == "" && len(failures) > 0 {
				t.Fatalf("unexpected failures: %v", failures)
			}
			if tc.failWith != "" {
				if len(failures) != 1 || failures[0].Field != tc.failWith {
					t.Fatalf("failures = %v, want one %q", failures, tc.failWith)
				}
				if !strings.Contains(failures[0].String(), "FAIL") {
					t.Errorf("failure renders as %q", failures[0])
				}
			}
			if tc.warnWith != "" {
				if len(warnings) != 1 || warnings[0].Field != tc.warnWith {
					t.Fatalf("warnings = %v, want one %q", warnings, tc.warnWith)
				}
				if !warnings[0].WarnOnly || !strings.Contains(warnings[0].String(), "warn") {
					t.Errorf("warning renders as %q", warnings[0])
				}
			}
		})
	}
}

func TestCompareIgnoresExtraCurrentCases(t *testing.T) {
	extra := baseCase()
	extra.Case = "chain-1p/tables=5"
	extra.SolvedLPs = 99999
	failures, warnings := Compare(reportWith(baseCase()), reportWith(baseCase(), extra), DefaultCompareOptions())
	if len(failures) != 0 || len(warnings) != 0 {
		t.Errorf("extra cases should not drift: failures=%v warnings=%v", failures, warnings)
	}
}

// TestJSONReportRoundTrip: a report written by FormatJSON loads back
// unchanged, so the CI gate compares exactly what the snapshot tool
// wrote.
func TestJSONReportRoundTrip(t *testing.T) {
	series := []*Series{{
		Shape:  workload.Chain,
		Params: 1,
		Points: []Point{{
			Tables: 4, MedianTime: 1234 * time.Microsecond,
			MedianPlans: 73, MedianLPs: 967, MedianFinal: 3,
			Repetitions: 3, Workers: 1,
		}},
	}}
	var buf bytes.Buffer
	if err := FormatJSON(&buf, series); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadJSONReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	built := BuildJSONReport(series)
	if len(loaded.Cases) != 1 || loaded.Cases[0] != built.Cases[0] {
		t.Errorf("round trip changed the report: %+v vs %+v", loaded.Cases[0], built.Cases[0])
	}
	failures, warnings := Compare(built, loaded, DefaultCompareOptions())
	if len(failures) != 0 || len(warnings) != 0 {
		t.Errorf("round-tripped report drifts: %v %v", failures, warnings)
	}
}

// The gate table: one baseline list holds a row of every kind, each
// gated by the same Compare loop. ε = 0 rows (Figure 12, picks, fleet,
// exact epsilon) gate on exact counts and
// the fleet hit rate; ε > 0 rows gate on the certified (1+ε) regret
// contract and tolerate count drift; a missing row of any kind fails,
// and time drift only warns. Each TestCompareGates*Cases test runs the
// rows of its kinds.
const (
	gateFig      = "chain-1p/tables=3"
	gatePickIdx  = "picks/star-1p/tables=7/index"
	gateFleet    = "fleet/star-1p/tables=4/servers=2"
	gateEpsExact = "epsilon/chain-1p/tables=5/eps=0"
	gateEpsApx   = "epsilon/chain-1p/tables=5/eps=0.1"
)

func gateBaseline() *JSONReport {
	return reportWith(
		JSONCase{Case: gateFig, Workers: 1, CreatedPlans: 10, SolvedLPs: 100, FinalPlans: 2, TimeMs: 1},
		JSONCase{Case: gatePickIdx, Workers: 1, CreatedPlans: 30, SolvedLPs: 300, FinalPlans: 5, TimeMs: 0.001},
		JSONCase{Case: gateFleet, Workers: 1, CreatedPlans: 20, SolvedLPs: 200, FinalPlans: 3, TimeMs: 0.1,
			SharedHitRate: 0.5, NumCPU: 1},
		JSONCase{Case: gateEpsExact, Workers: 1, CreatedPlans: 40, SolvedLPs: 400, FinalPlans: 8, TimeMs: 0.1, MaxRegret: 1},
		JSONCase{Case: gateEpsApx, Workers: 1, CreatedPlans: 30, SolvedLPs: 300, FinalPlans: 4, TimeMs: 0.1,
			Epsilon: 0.1, MaxRegret: 1.04},
	)
}

var gateCases = []struct {
	kind, name string
	rows       []string
	// mutate edits each named current row; nil drops them.
	mutate     func(*JSONCase)
	fail, warn []string
}{
	{kind: "figure12", name: "identical", rows: nil},
	{kind: "figure12", name: "missing figure12 row fails", rows: []string{gateFig}, fail: []string{"missing"}},
	{kind: "picks", name: "picks plan drift fails", rows: []string{gatePickIdx},
		mutate: func(c *JSONCase) { c.CreatedPlans++ }, fail: []string{"created_plans"}},
	{kind: "picks", name: "missing picks row fails", rows: []string{gatePickIdx}, fail: []string{"missing"}},
	{kind: "fleet", name: "fleet on another machine only warns on time", rows: []string{gateFleet},
		mutate: func(c *JSONCase) { c.TimeMs, c.NumCPU = 9, 64 }, warn: []string{"time_ms"}},
	{kind: "fleet", name: "fleet hit-rate drift fails", rows: []string{gateFleet},
		mutate: func(c *JSONCase) { c.SharedHitRate = 0 }, fail: []string{"shared_hit_rate"}},
	{kind: "fleet", name: "missing fleet row fails", rows: []string{gateFleet}, fail: []string{"missing"}},
	{kind: "epsilon", name: "epsilon count drift within contract passes", rows: []string{gateEpsApx},
		mutate: func(c *JSONCase) { c.CreatedPlans, c.SolvedLPs, c.FinalPlans, c.MaxRegret = 25, 250, 3, 1.0999 }},
	{kind: "epsilon", name: "epsilon regret beyond contract fails", rows: []string{gateEpsApx},
		mutate: func(c *JSONCase) { c.MaxRegret = 1.2 }, fail: []string{"max_regret"}},
	{kind: "epsilon", name: "re-tiered epsilon row fails", rows: []string{gateEpsApx},
		mutate: func(c *JSONCase) { c.Epsilon, c.MaxRegret = 0.25, 1.2 }, fail: []string{"epsilon"}},
	{kind: "epsilon", name: "exact epsilon plan drift fails", rows: []string{gateEpsExact},
		mutate: func(c *JSONCase) { c.CreatedPlans = 41 }, fail: []string{"created_plans"}},
	{kind: "epsilon", name: "missing epsilon row fails", rows: []string{gateEpsApx}, fail: []string{"missing"}},
}

// runGateCases runs the gate-table rows of the given kinds, failing the
// test if any kind has no rows.
func runGateCases(t *testing.T, kinds ...string) {
	t.Helper()
	fields := func(ds []Drift) []string {
		var out []string
		for _, d := range ds {
			out = append(out, d.Field)
		}
		return out
	}
	seen := map[string]bool{}
	for _, tc := range gateCases {
		if !slices.Contains(kinds, tc.kind) {
			continue
		}
		seen[tc.kind] = true
		t.Run(tc.name, func(t *testing.T) {
			cur := gateBaseline()
			kept := cur.Cases[:0]
			for _, c := range cur.Cases {
				if slices.Contains(tc.rows, c.Case) {
					if tc.mutate == nil {
						continue
					}
					tc.mutate(&c)
				}
				kept = append(kept, c)
			}
			cur.Cases = kept
			failures, warnings := Compare(gateBaseline(), cur, DefaultCompareOptions())
			if !slices.Equal(fields(failures), tc.fail) || !slices.Equal(fields(warnings), tc.warn) {
				t.Fatalf("failures %v, warnings %v; want %v, %v", failures, warnings, tc.fail, tc.warn)
			}
			for _, d := range failures {
				if !slices.Contains(tc.rows, d.Case) {
					t.Errorf("failure on untouched row: %v", d)
				}
			}
		})
	}
	for _, k := range kinds {
		if !seen[k] {
			t.Errorf("gate table has no %s rows", k)
		}
	}
}

func TestCompareGatesFigure12AndPickCases(t *testing.T) { runGateCases(t, "figure12", "picks") }

// TestCompareGatesFleetCases: fleet rows participate in the gate — a
// missing row or a drifted hit rate fails, time drift only warns.
func TestCompareGatesFleetCases(t *testing.T) { runGateCases(t, "fleet") }

// TestCompareGatesEpsilonCases: ε = 0 rows gate on exact counts; ε > 0
// rows gate on the certified regret contract and tolerate count drift.
func TestCompareGatesEpsilonCases(t *testing.T) { runGateCases(t, "epsilon") }
