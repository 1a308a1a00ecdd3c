package main

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"

	"mpq/internal/bench"
)

// ciGateArgs extracts the mpqbench arguments of the CI workflow's bench
// regression gate: the `go run ./cmd/mpqbench` command with its
// backslash-continued lines, up to the output redirect.
func ciGateArgs(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		if !strings.Contains(line, "go run ./cmd/mpqbench") {
			continue
		}
		cmd := ""
		for ; i < len(lines); i++ {
			l := strings.TrimSpace(lines[i])
			cmd += " " + strings.TrimSuffix(l, "\\")
			if !strings.HasSuffix(l, "\\") {
				break
			}
		}
		fields := strings.Fields(cmd)
		start := slices.Index(fields, "./cmd/mpqbench") + 1
		end := slices.Index(fields, ">")
		if end < 0 {
			end = len(fields)
		}
		return fields[start:end]
	}
	t.Fatal("no mpqbench command in the CI workflow")
	return nil
}

func loadBaseline(t *testing.T) *bench.JSONReport {
	t.Helper()
	f, err := os.Open("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := bench.LoadJSONReport(f)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func caseNames(cases []bench.JSONCase) []string {
	var names []string
	for _, c := range cases {
		names = append(names, c.Case)
	}
	return names
}

// TestCIGatePlansBaseline ties the CI gate's flag line, the committed
// baseline and the planner together: the flag line must plan exactly
// the baseline's gated rows, in report order, and adding the documented
// -parallel points must plan exactly its informational rows.
func TestCIGatePlansBaseline(t *testing.T) {
	base := loadBaseline(t)
	args := ciGateArgs(t)
	inv, err := parseArgs(args)
	if err != nil {
		t.Fatalf("CI flag line %q: %v", args, err)
	}
	if got, want := inv.plan.caseNames(), caseNames(base.Cases); !slices.Equal(got, want) {
		t.Errorf("CI flag line plans %d cases, baseline gates %d:\n got %q\nwant %q", len(got), len(want), got, want)
	}
	if inv.plan.baseline != "BENCH_baseline.json" || !inv.plan.json {
		t.Errorf("CI flag line does not gate JSON against the baseline: %+v", inv.plan)
	}

	inv, err = parseArgs(append(args, "-parallel", "clique:1:6,clique:2:5,star:1:8"))
	if err != nil {
		t.Fatal(err)
	}
	var parallel []string
	for _, s := range inv.plan.parallel {
		parallel = append(parallel, parallelPrefix+s.String())
	}
	if want := caseNames(base.ParallelCases); !slices.Equal(parallel, want) {
		t.Errorf("-parallel plans %q, baseline has %q", parallel, want)
	}
}

// TestGateSummaryCountsEveryCase: the gate's OK line counts every gated
// row of the baseline, whatever mode emitted it.
func TestGateSummaryCountsEveryCase(t *testing.T) {
	base := loadBaseline(t)
	var out bytes.Buffer
	if !compareAgainstBaseline(&out, "../../BENCH_baseline.json", base) {
		t.Fatalf("baseline fails against itself:\n%s", out.String())
	}
	if want := "(60 cases, 0 warning(s))"; !strings.Contains(out.String(), want) || len(base.Cases) != 60 {
		t.Errorf("summary %q, want %s over the baseline's %d cases", out.String(), want, len(base.Cases))
	}
	// The last count-gated row: ε > 0 rows gate on regret, not counts.
	last := len(base.Cases) - 1
	for base.Cases[last].Epsilon > 0 {
		last--
	}
	base.Cases[last].CreatedPlans++
	out.Reset()
	if compareAgainstBaseline(&out, "../../BENCH_baseline.json", base) {
		t.Errorf("plan drift passed the gate:\n%s", out.String())
	}
}

func TestParseSpecList(t *testing.T) {
	specs, err := parseSpecList("chain:1:8, cycle:2:3", "-picks")
	if err != nil || len(specs) != 2 || specs[1].String() != "cycle-2p/tables=3" {
		t.Errorf("parseSpecList = %v, %v", specs, err)
	}
	for _, bad := range []string{"chain:1", "chain:1:8:2", "chain:0:4", "chain:1:1", "cycle:1:2", "ring:1:4", "chain:x:4"} {
		if _, err := parseSpecList(bad, "-picks"); err == nil {
			t.Errorf("parseSpecList(%q) = %v, want a rejection", bad, err)
		}
	}
}

func TestParseArgsRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "figure13"},
		{"-params", "0"},
		{"-shapes", "ring"},
		{"-epsilon", "1.5"},
		{"-epsilon-specs", "chain:1:8"},
		{"-picks", "star:1"},
	} {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("parseArgs(%q) accepted", args)
		}
	}
}
