// Command perfbench is the repository's benchmark. It drives the DGS
// packages only through their public functions, times every call from
// outside, checks the outputs, and prints one JSON result as its last
// line of standard output.
//
//	bash perfbench/run.sh --workload paper-sim --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all
//
// --trace 0 prints the end-to-end metrics of one untraced run. --trace 1
// replays the same inputs with spans around every call into a layer,
// writes the spans to a file, and derives the per-layer metrics from it.
// --workload all runs every workload on the default and the held-out
// seed and prints one summary table. README.md lists the workloads, the
// metrics and which layer should move which end-to-end metric.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// The default seed is the one every tuning run uses; claims must also hold
// on the held-out seed, which no change is tuned against.
const (
	defaultSeed = 1
	heldOutSeed = 7331
)

// metric is one named value as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics of an untraced run; every workload reports
// all of them, with "op" meaning a slot (paper-sim), a planning epoch
// (walker-plan) or a request (serve-live).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"replan_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"heap_retained_mb", "MB"},
}

// perLayer lists the metrics of a traced run, derived from its span file.
// A layer the workload never calls reads 0.
var perLayer = []struct{ name, unit string }{
	{"sim.step_plan_ms", "ms"},
	{"sim.step_ms", "ms"},
	{"sim.plan_time_share", "ratio"},
	{"poscache.fill_us_per_sat_instant", "us"},
	{"poscache.positions", "count"},
	{"passes.windows_s", "s"},
	{"passes.candidate_share", "ratio"},
	{"passes.refine_per_window", "count"},
	{"core.plan_epoch_s", "s"},
	{"core.link_match_s", "s"},
	{"core.pair_slots", "count"},
	{"core.assigned_share", "ratio"},
	{"core.replan_ms", "ms"},
	{"core.replan_changed_slots", "count"},
	{"core.replan_incremental_share", "ratio"},
	{"match.stable_ms_per_slot", "ms"},
	{"match.edges_per_slot", "count"},
	{"linkbudget.rate_ns", "ns"},
	{"serve.passes_hit_share", "ratio"},
	{"serve.dedup_share", "ratio"},
	{"serve.rejected", "count"},
	{"serve.passes_miss_ms", "ms"},
	{"serve.plan_v2_ms", "ms"},
	{"serve.body_kb", "kB"},
	{"trace.overhead_pct", "%"},
}

// issueMetric is one of the workload-specific names the summary table of
// --workload all prints, with the end-to-end value it is read from.
type issueMetric struct {
	name, unit string
	value      float64
}

// outcome is what one workload run hands back to main.
type outcome struct {
	// e2e holds every endToEnd metric (untraced runs).
	e2e map[string]float64
	// issue holds the workload-specific names of the same numbers.
	issue []issueMetric
	// attempted and failed count timed operations plus gate checks.
	attempted, failed int
	// gates are the correctness checks; any failure fails the run.
	gates []gate
	// notes are extra human-readable lines (digests, sample counts).
	notes []string
}

// gate is one correctness check and its outcome.
type gate struct {
	name string
	err  error
}

func (o *outcome) check(name string, err error) {
	o.gates = append(o.gates, gate{name, err})
	o.attempted++
	if err != nil {
		o.failed++
	}
}

// env is what a workload needs to run.
type env struct {
	seed    int64
	seconds float64
	sc      scale
	// tr is non-nil in traced runs.
	tr *tracer
}

var workloads = map[string]func(*env) (*outcome, error){
	"paper-sim":   paperSim,
	"walker-plan": walkerPlan,
	"serve-live":  serveLive,
}

var workloadOrder = []string{"paper-sim", "walker-plan", "serve-live"}

// options selects one run.
type options struct {
	workload          string
	seed              int64
	seconds           int
	trace             bool
	root, out, commit string
	sc                scale
	workloads         map[string]func(*env) (*outcome, error)
}

func main() {
	opt := options{sc: fullScale, workloads: workloads}
	flag.StringVar(&opt.workload, "workload", "paper-sim", "paper-sim, walker-plan, serve-live, or all")
	flag.Int64Var(&opt.seed, "seed", defaultSeed, "workload seed")
	flag.IntVar(&opt.seconds, "seconds", 20, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&opt.root, "root", ".", "repository checkout the benchmark was built from")
	flag.StringVar(&opt.out, "out", ".bench_build", "directory for trace files")
	flag.StringVar(&opt.commit, "commit", "none", "commit of the checkout, if known")
	flag.Parse()
	if opt.seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	opt.trace = *traced == 1
	if opt.workload == "all" {
		os.Exit(runAll(opt))
	}
	os.Exit(runOne(opt, os.Stdout))
}

// runOne runs one workload, prints its report and result line to stdout,
// and returns the exit code: 0 only when every operation and gate passed.
func runOne(opt options, stdout io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	run, ok := opt.workloads[opt.workload]
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", opt.workload))
	}
	fp, err := fingerprint(opt.root, opt.commit, opt.seed)
	if err != nil {
		return fail(err)
	}
	fpJSON, _ := json.Marshal(fp) // maps of strings and numbers always marshal
	fmt.Fprintf(stdout, "# fingerprint %s\n", fpJSON)

	e := &env{seed: opt.seed, seconds: float64(opt.seconds), sc: opt.sc}
	if opt.trace {
		e.tr = newTracer(opt.workload, fmt.Sprintf("%d-%d", time.Now().UnixNano(), os.Getpid()))
	}
	ticks := readTicks()
	o, err := run(e)
	if err != nil {
		return fail(err)
	}
	o.notes = append(o.notes, fmt.Sprintf("host CPU time stolen by the hypervisor during the run: %.1f%%", 100*stolenShare(ticks)))
	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	if e.tr != nil {
		path := filepath.Join(opt.out, "traces", fmt.Sprintf("%s-seed%d-%s.jsonl", opt.workload, opt.seed, e.tr.run))
		if err := e.tr.write(path, fp); err != nil {
			return fail(err)
		}
		spans, err := readSpans(path)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "# trace %s (%d spans)\n", path, len(spans))
		layers := deriveLayers(spans)
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{layers[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := o.e2e[m.name]
			if !ok {
				return fail(fmt.Errorf("workload %s did not measure %s", opt.workload, m.name))
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
		o.issue = append(o.issue, issueMetric{"setup_s", "s", o.e2e["setup_s"]},
			issueMetric{"alloc_mb_per_op", "MB", o.e2e["alloc_mb_per_op"]},
			issueMetric{"peak_rss_mb", "MB", peakRSSMB()})
	}
	o.issue = append(o.issue, issueMetric{"fail_share", "ratio", float64(o.failed) / float64(max(o.attempted, 1))})
	for _, n := range o.notes {
		fmt.Fprintln(stdout, "#", n)
	}
	res.Correct = true
	for _, g := range o.gates {
		status := "ok"
		if g.err != nil {
			status = "FAILED: " + g.err.Error()
			res.Correct = false
		}
		fmt.Fprintf(stdout, "# gate %s %s\n", g.name, status)
	}
	issue := map[string]metric{}
	for _, m := range o.issue {
		fmt.Fprintf(stdout, "# metric %s %.6g %s\n", m.name, m.value, m.unit)
		issue[m.name] = metric{m.value, m.unit}
	}
	issueJSON, _ := json.Marshal(issue)
	fmt.Fprintf(stdout, "# issue-metrics %s\n", issueJSON)
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// fingerprint identifies the code and the machine a result came from, so
// numbers from different hosts are never read as one series.
func fingerprint(root, commit string, seed int64) (map[string]any, error) {
	src, err := sourceDigest(root)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"seed":          seed,
		"commit":        commit,
		"source_sha256": src,
		"go":            runtime.Version(),
		"cpu":           cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
	}, nil
}

// sourceDigest hashes every Go source and module file under root, so a
// result identifies its code even in a checkout without git metadata.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hash sources: %w", err)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", fmt.Errorf("hash sources: %w", err)
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runAll runs every workload on the default and the held-out seed, each in
// its own process (so peak RSS is per workload), and prints one table with
// the workload-specific metric names. It returns the exit code.
func runAll(opt options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	columns := []string{"setup_s", "sim_slots_per_s", "plan_epoch_s", "alloc_mb_per_op", "peak_rss_mb",
		"serve_rps", "serve_p50_ms", "serve_p99_ms", "swap_ms", "fail_share"}
	units := map[string]string{}
	type row struct {
		workload string
		seed     int64
		vals     map[string]metric
		ok       bool
	}
	var rows []row
	code := 0
	for _, w := range workloadOrder {
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(opt.seconds),
				"--trace", "0", "--root", opt.root, "--out", opt.out, "--commit", opt.commit)
			var buf bytes.Buffer
			cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
			cmd.Stderr = os.Stderr
			fmt.Printf("## %s seed %d\n", w, seed)
			runErr := cmd.Run()
			r := row{workload: w, seed: seed, vals: map[string]metric{}, ok: runErr == nil}
			sc := bufio.NewScanner(&buf)
			for sc.Scan() {
				if rest, ok := strings.CutPrefix(sc.Text(), "# issue-metrics "); ok {
					if err := json.Unmarshal([]byte(rest), &r.vals); err != nil {
						r.ok = false
					}
				}
			}
			for k, m := range r.vals {
				units[k] = m.Unit
			}
			if !r.ok {
				code = 1
			}
			rows = append(rows, r)
		}
	}
	fmt.Printf("\n%-12s %5s", "workload", "seed")
	for _, c := range columns {
		fmt.Printf(" %16s", c+"["+units[c]+"]")
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-12s %5d", r.workload, r.seed)
		for _, c := range columns {
			if m, ok := r.vals[c]; ok {
				fmt.Printf(" %16.4g", m.Value)
			} else {
				fmt.Printf(" %16s", "-")
			}
		}
		if !r.ok {
			fmt.Print("  FAILED")
		}
		fmt.Println()
	}
	return code
}
