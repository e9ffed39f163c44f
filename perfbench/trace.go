package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's side.
// Spans of one run share Run; Parent links a call to the span that made
// it (0 for a root).
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Name     string             `json:"name"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Workload string             `json:"workload"`
	Run      string             `json:"run"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
}

func (s span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu            sync.Mutex
	t0            time.Time
	workload, run string
	spans         []span
}

func newTracer(workload, run string) *tracer {
	return &tracer{t0: time.Now(), workload: workload, run: run}
}

// begin opens a span and returns its id (0 when not tracing).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNs: now, Workload: t.workload, Run: t.run,
	})
	return len(t.spans)
}

// end closes span id, attaching the work counts measured at its boundary.
func (t *tracer) end(id int, attrs map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNs = now
	t.spans[id-1].Attrs = attrs
}

// write stores the spans as JSON lines after a header line holding the
// run's fingerprint.
func (t *tracer) write(path string, fp map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{"fingerprint": fp, "workload": t.workload, "run": t.run})
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(t.spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}

// readSpans loads a trace file written by tracer.write.
func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("read trace: %w", err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	first := true
	for sc.Scan() {
		if first {
			first = false
			continue
		}
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("read trace %s: %w", path, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read trace %s: %w", path, err)
	}
	return spans, nil
}

// Span names. Root spans group a run's phases: the untraced phase has no
// children (it is the baseline for the tracing overhead), the traced
// phase holds one span per timed operation, and probes holds the fresh
// per-layer calls.
const (
	spanUntraced = "phase.untraced"
	spanTraced   = "phase.traced"
	spanProbes   = "probes"

	spanStep       = "sim.Engine.Step"
	spanFill       = "poscache.Cache.AtRange"
	spanWindows    = "passes.Predictor.WindowsBetween"
	spanRefine     = "passes.Predictor.WindowsBetween/refined"
	spanColdPlan   = "core.Scheduler.PlanEpoch/cold"
	spanApply      = "serve.Store.Apply"
	spanStable     = "match.Stable"
	spanRate       = "linkbudget.RateBps"
	spanStats      = "serve.Server.Stats"
	spanMissPasses = "serve.Snapshot.Passes"
	spanHTTP       = "http "
)

// deriveLayers computes every per-layer metric from a run's spans. A layer
// with no spans in the run reads 0.
func deriveLayers(spans []span) map[string]float64 {
	m := map[string]float64{}
	for _, p := range perLayer {
		m[p.name] = 0
	}
	byName := map[string][]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	one := func(name string) (span, bool) {
		if ss := byName[name]; len(ss) > 0 {
			return ss[0], true
		}
		return span{}, false
	}

	var plan, nonPlan []float64
	for _, s := range byName[spanStep] {
		if s.Attrs["plan"] == 1 {
			plan = append(plan, s.seconds())
		} else {
			nonPlan = append(nonPlan, s.seconds())
		}
	}
	if len(plan)+len(nonPlan) > 0 {
		m["sim.step_plan_ms"] = ms(median(plan))
		m["sim.step_ms"] = ms(median(nonPlan))
		m["sim.plan_time_share"] = sum(plan) / (sum(plan) + sum(nonPlan))
	}

	fill, haveFill := one(spanFill)
	if haveFill {
		m["poscache.positions"] = fill.Attrs["positions"]
		m["poscache.fill_us_per_sat_instant"] = fill.seconds() * 1e6 / fill.Attrs["positions"]
	}
	win, haveWin := one(spanWindows)
	if haveWin {
		m["passes.windows_s"] = win.seconds()
		m["passes.candidate_share"] = win.Attrs["candidate_pairs"] / win.Attrs["cross_pairs"]
	}
	if s, ok := one(spanRefine); ok && s.Attrs["windows"] > 0 {
		m["passes.refine_per_window"] = s.Attrs["refine_bisections"] / s.Attrs["windows"]
	}
	if s, ok := one(spanColdPlan); ok {
		m["core.plan_epoch_s"] = s.seconds()
		// Derived: PlanEpoch has no inner spans yet, so link evaluation
		// and matching are what remains of a cold epoch after the same
		// fill and window scan measured on their own.
		m["core.link_match_s"] = s.seconds() - win.seconds() - fill.seconds()
		m["core.pair_slots"] = s.Attrs["pair_slots"]
		if s.Attrs["pair_slots"] > 0 {
			m["core.assigned_share"] = s.Attrs["assigned"] / s.Attrs["pair_slots"]
		}
	}

	var replan, changed []float64
	incr := 0.0
	for _, s := range byName[spanApply] {
		replan = append(replan, s.seconds())
		changed = append(changed, s.Attrs["changed_slots"])
		incr += s.Attrs["incremental"]
	}
	if len(replan) > 0 {
		m["core.replan_ms"] = ms(median(replan))
		m["core.replan_changed_slots"] = median(changed)
		m["core.replan_incremental_share"] = incr / float64(len(replan))
	}

	if ss := byName[spanStable]; len(ss) > 0 {
		var t, edges float64
		for _, s := range ss {
			t += s.seconds()
			edges += s.Attrs["edges"]
		}
		m["match.stable_ms_per_slot"] = ms(t) / float64(len(ss))
		m["match.edges_per_slot"] = edges / float64(len(ss))
	}
	if s, ok := one(spanRate); ok && s.Attrs["evals"] > 0 {
		m["linkbudget.rate_ns"] = s.seconds() * 1e9 / s.Attrs["evals"]
	}

	if s, ok := one(spanStats); ok {
		if looked := s.Attrs["passes_hits"] + s.Attrs["passes_misses"]; looked > 0 {
			m["serve.passes_hit_share"] = s.Attrs["passes_hits"] / looked
		}
		if s.Attrs["passes_misses"] > 0 {
			m["serve.dedup_share"] = s.Attrs["passes_dedups"] / s.Attrs["passes_misses"]
		}
		m["serve.rejected"] = s.Attrs["rejected"]
	}
	var miss []float64
	for _, s := range byName[spanMissPasses] {
		miss = append(miss, s.seconds())
	}
	if len(miss) > 0 {
		m["serve.passes_miss_ms"] = ms(median(miss))
	}
	var planV2, bodies []float64
	for name, ss := range byName {
		if !strings.HasPrefix(name, spanHTTP) {
			continue
		}
		for _, s := range ss {
			bodies = append(bodies, s.Attrs["bytes"])
			if name == spanHTTP+"GET /v2/plan" {
				planV2 = append(planV2, s.seconds())
			}
		}
	}
	if len(planV2) > 0 {
		m["serve.plan_v2_ms"] = ms(median(planV2))
	}
	if len(bodies) > 0 {
		m["serve.body_kb"] = sum(bodies) / float64(len(bodies)) / 1e3
	}

	u, okU := one(spanUntraced)
	t, okT := one(spanTraced)
	if okU && okT && u.seconds() > 0 {
		m["trace.overhead_pct"] = 100 * (t.seconds() - u.seconds()) / u.seconds()
	}
	return m
}
