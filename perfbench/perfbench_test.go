package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"dgs"
	"dgs/internal/core"
	"dgs/internal/station"
)

// tinyScale runs every workload in about a second.
var tinyScale = scale{
	paperSats: 24, paperStations: 30,
	walkerSats: 96, walkerStations: 40,
	serveUpdateEvery: 20,
}

type benchmarkFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func tinyRun(t *testing.T, workload string, trace bool, ws map[string]func(*env) (*outcome, error)) (int, string, result) {
	t.Helper()
	var out bytes.Buffer
	code := runOne(options{
		workload: workload, seed: 3, seconds: 1, trace: trace,
		root: "..", out: t.TempDir(), commit: "test", sc: tinyScale, workloads: ws,
	}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, out.String())
	}
	return code, out.String(), res
}

// Every workload in BENCHMARK.json runs at tiny scale, passes its gates,
// and prints exactly the metrics BENCHMARK.json names, with their units.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloadOrder))
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			code, out, res := tinyRun(t, w.Name, trace, workloads)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: exit %d, result %+v\n%s", w.Name, trace, code, res, out)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !trace && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

func TestPlanGateTrips(t *testing.T) {
	net := station.Network{{ID: 0}, {ID: 1, Beams: 2}}
	t0 := dgs.Start
	plan := func(as ...core.Assignment) *core.Plan {
		return core.NewPlan(1, t0, time.Minute, []core.Slot{{Start: t0, Assignments: as}})
	}
	if err := checkPlan(plan(core.Assignment{Sat: 0, Station: 0}, core.Assignment{Sat: 1, Station: 1}, core.Assignment{Sat: 2, Station: 1}), net); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if err := checkPlan(plan(core.Assignment{Sat: 0, Station: 0}, core.Assignment{Sat: 0, Station: 1}), net); err == nil {
		t.Error("double-booked satellite passed")
	}
	if err := checkPlan(plan(core.Assignment{Sat: 0, Station: 0}, core.Assignment{Sat: 1, Station: 0}), net); err == nil {
		t.Error("station over capacity passed")
	}
}

func TestResponseGateTrips(t *testing.T) {
	g := newResponseGate()
	if err := g.observe(0, http.StatusOK, 1, "/v2/plan", sha256.Sum256([]byte("a"))); err != nil {
		t.Fatal(err)
	}
	if err := g.observe(1, http.StatusNotModified, 1, "/v2/plan", [32]byte{}); err != nil {
		t.Fatal(err)
	}
	if err := g.observe(0, http.StatusTooManyRequests, 1, "/v2/plan", [32]byte{}); err == nil {
		t.Error("429 passed")
	}
	if err := g.observe(0, http.StatusOK, 1, "/v2/plan", sha256.Sum256([]byte("b"))); err == nil {
		t.Error("changed body within one epoch passed")
	}
	if err := g.observe(0, http.StatusOK, 2, "/v2/plan", sha256.Sum256([]byte("b"))); err != nil {
		t.Errorf("new body in a new epoch rejected: %v", err)
	}
	if err := g.observe(0, http.StatusOK, 1, "", [32]byte{}); err == nil {
		t.Error("epoch going backwards passed")
	}
}

// Engines built from different seeds stand in for a run that lost
// determinism: their digests differ and the gate trips.
func TestDigestGateTrips(t *testing.T) {
	digest := func(seed int64) string {
		e := &env{seed: seed, sc: tinyScale}
		eng, err := newPaperEngine(e, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 40; k++ {
			if err := eng.Step(); err != nil {
				t.Fatal(err)
			}
		}
		res, err := eng.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		d, err := resultDigest(res)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if err := sameDigest(digest(1), digest(1)); err != nil {
		t.Fatalf("repetition differs: %v", err)
	}
	if err := sameDigest(digest(1), digest(2)); err == nil {
		t.Error("different results passed the digest gate")
	}
}

// A failed gate fails the run: nonzero exit, correct=false, and the failure
// counted in failed.
func TestFailedGateExitsNonzero(t *testing.T) {
	ws := map[string]func(*env) (*outcome, error){
		"bad": func(*env) (*outcome, error) {
			o := &outcome{e2e: map[string]float64{}, attempted: 10}
			for _, m := range endToEnd {
				o.e2e[m.name] = 1
			}
			o.check("planted", errors.New("planted failure"))
			return o, nil
		},
	}
	code, out, res := tinyRun(t, "bad", false, ws)
	if code == 0 || res.Correct || res.Failed != 1 {
		t.Fatalf("exit %d, result %+v\n%s", code, res, out)
	}
}

// The reported tail is the highest percentile with ten samples beyond it.
func TestTimingSummary(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i) / 1e3
	}
	for _, c := range []struct {
		n    int
		want string
	}{
		{1000, "p50 499.5 ms, p99 989 ms, n=1000"},
		{200, "p50 99.5 ms, p90 179.1 ms, n=200"},
		{50, "p50 24.5 ms, n=50"},
	} {
		if got := timingSummary(xs[:c.n]); got != c.want {
			t.Errorf("timingSummary(%d samples) = %q, want %q", c.n, got, c.want)
		}
	}
}
