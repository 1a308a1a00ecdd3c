// Command e2ebench is the repository's end-to-end benchmark. It starts the
// real mpqserve binary, drives it over loopback HTTP with seeded,
// generated workloads on at most two closed-loop connections, verifies
// every answer against in-process ground truth, and prints the
// end-to-end metrics. With --trace 1 it instead prints the per-layer
// metrics of a traced run of the same inputs. See README.md.
//
//	bash e2ebench/run.sh --workload pick-hot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// connections is the benchmark's client connection count.
const connections = 2

// started is when the benchmark process started; progress lines on
// standard error are stamped with the time since.
var started = time.Now()

// progress reports a finished phase on standard error.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: %6.1fs %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string // how the value was taken (percentile, sample count)
	// Printed marks a metric shown in the report but left out of the
	// result line (see README.md, "End-to-end").
	Printed bool
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: prepare-cold or pick-hot")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "length of the timed window")
		traced  = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
		root    = flag.String("root", ".", "repository root (the checkout being measured)")
		bin     = flag.String("mpqserve", ".bench_build/mpqserve", "mpqserve binary built from the checkout")
	)
	flag.Parse()
	// The harness keeps every answer for verification; a lazier
	// collector keeps its own CPU use out of the measured server's way.
	debug.SetGCPercent(400)
	if err := mainErr(*name, *seed, *seconds, *traced == 1, *root, *bin); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds float64, traced bool, root, bin string) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want prepare-cold or pick-hot)", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build", "tmp"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	window := time.Duration(seconds * float64(time.Second))
	e := &runEnv{
		ctx: ctx, bin: bin, work: work,
		rng:    rand.New(rand.NewSource(seed)),
		seed:   seed,
		window: window,
		probe:  max(time.Second, window/3),
		cpus:   runtime.NumCPU(),
	}
	fp := fingerprint(root, name, seed, seconds, traced)
	if connections > fp.NumCPU {
		fmt.Printf("WARNING: %d connections exceed num_cpu=%d; client and server contend for CPUs\n", connections, fp.NumCPU)
	}

	var (
		ms        []metric
		attempted int
		bad       int
	)
	if traced {
		lr, err := traceRun(e, wl, filepath.Join(root, ".bench_build", "traces"), name, seed)
		if err != nil {
			return err
		}
		ms, fp.Flags = lr.metrics, lr.flags
		attempted, bad = lr.attempted, lr.failed
	} else {
		r, err := wl(e)
		if err != nil {
			return err
		}
		var share float64
		share, attempted, bad = failedShare(&r.cold, &r.warm, &r.picks.lat, &r.batches.lat)
		ms = append(r.metrics(), metric{"failed_share", share, "ratio",
			fmt.Sprintf("%d of %d requests failed, refused or timed out", bad, attempted), true})
		fp.Flags = r.flags
	}
	fpJSON, _ := json.Marshal(fp)
	fmt.Println("fingerprint:", string(fpJSON))
	for _, m := range ms {
		note := m.Note
		if m.Printed {
			note += " (printed only)"
		}
		fmt.Printf("%-34s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, note)
	}
	return printResult(ms, attempted, bad)
}

// printResult writes the final JSON line. Every answer was verified
// before this point; a mismatch has already failed the run.
func printResult(ms []metric, attempted, bad int) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: true, Attempted: max(attempted, 1), Failed: bad, Metrics: map[string]val{}}
	for _, m := range ms {
		if m.Printed {
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number (%v)", m.Name, m.Value)
		}
		out.Metrics[m.Name] = val{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// metrics computes the end-to-end metrics of a run.
func (r *run) metrics() []metric {
	coldTail := tailOf(r.cold.lat)
	pickTail := tailOf(r.picks.lat.lat)
	batchTail := tailOf(r.batches.lat.lat)
	okPicks := r.picks.lat.attempted - r.picks.lat.notOK()
	okCold := r.cold.attempted - r.cold.notOK()
	n := func(s *series) string { return fmt.Sprintf("median of n=%d", len(s.lat)) }
	return []metric{
		{"setup_s", median(r.setup), "s", fmt.Sprintf("median of %d setups", len(r.setup)), false},
		{"prepare_cold_ms_p50", 1e3 * median(r.cold.lat), "ms", n(&r.cold), false},
		{"prepare_cold_ms_tail", 1e3 * coldTail.Value, "ms", coldTail.String(), false},
		{"prepare_cold_per_s", float64(okCold) / r.coldSpan.Seconds(), "1/s", fmt.Sprintf("%d over %.3gs", okCold, r.coldSpan.Seconds()), false},
		{"prepare_warm_ms_p50", 1e3 * median(r.warm.lat), "ms", n(&r.warm), false},
		{"pick_us_p50", 1e6 * median(r.picks.lat.lat), "us", n(&r.picks.lat), false},
		// The single-pick tail sits near p99.98, where stalls of a shared
		// 2-CPU machine decide it: reported, not part of the result.
		{"pick_us_tail", 1e6 * pickTail.Value, "us", pickTail.String(), true},
		{"picks_per_s", float64(okPicks) / r.pickSpan.Seconds(), "1/s", fmt.Sprintf("%d over %.3gs", okPicks, r.pickSpan.Seconds()), false},
		{"pickbatch_us_per_point_p50", 1e6 * median(r.batches.perPoint), "us", fmt.Sprintf("median of n=%d batches of %d points", len(r.batches.perPoint), batchPoints), false},
		// The batch tail on prepare-cold falls inside the frontier batches
		// of its two slowest plan sets, whose latencies spread 2× within a
		// run: reported, not part of the result.
		{"pickbatch_ms_tail", 1e3 * batchTail.Value, "ms", batchTail.String(), true},
		{"server_rss_mb", median(r.peakMB), "MB", fmt.Sprintf("VmHWM, median of %d servers", len(r.peakMB)), false},
	}
}

// envFingerprint identifies what a result was measured on and with.
type envFingerprint struct {
	NumCPU      int      `json:"num_cpu"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	GoVersion   string   `json:"go_version"`
	Commit      string   `json:"commit"`
	Flags       []string `json:"mpqserve_flags"`
	Connections int      `json:"connections"`
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Seconds     float64  `json:"seconds"`
	Trace       bool     `json:"trace"`
}

func fingerprint(root, name string, seed int64, seconds float64, traced bool) envFingerprint {
	return envFingerprint{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(root), Connections: connections,
		Workload: name, Seed: seed, Seconds: seconds, Trace: traced,
	}
}

// commit names the measured source: the git commit when the checkout is
// a repository, otherwise a hash of its Go sources and module files.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
