package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// scale sizes the workloads; the self-test runs them tiny.
type scale struct {
	paperSats, paperStations   int
	walkerSats, walkerStations int
	// serveUpdateEvery is the request-sequence period of POST /v2/updates.
	serveUpdateEvery int
}

// fullScale is the benchmark proper: the paper's 259 × 173 population and
// the ROADMAP's 2,000 × 500 Walker planning instance.
var fullScale = scale{
	paperSats: 259, paperStations: 173,
	walkerSats: 2000, walkerStations: 500,
	serveUpdateEvery: 40,
}

// opsFor sizes a timed phase: the whole number of ops the reference host
// (2-vCPU Xeon VM) completes in seconds at its measured rate perSecond,
// and at least min. The work of a run is therefore fixed by --seconds and
// not by the host's speed: a phase that ran to a deadline would see fewer
// and earlier ops on a slower host, and early ops cost less than late
// ones on paper-sim and serve-live.
func opsFor(seconds, perSecond float64, min int) int {
	return max(min, int(math.Round(seconds*perSecond)))
}

// setupReps repeats a set-up at least three times and until it has taken a
// second in total (at most 200 times), and returns every duration in
// unstolen seconds (see unstolen). A set-up that fails stops the
// repetition.
func setupReps(build func(rep int) error) ([]float64, error) {
	var ds []float64
	total := 0.0
	ticks := readTicks()
	for rep := 0; rep < 200 && (rep < 3 || total < 1); rep++ {
		t0 := time.Now()
		if err := build(rep); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		d := time.Since(t0).Seconds()
		ds = append(ds, d)
		total += d
	}
	f := unstolen(ticks)
	for i := range ds {
		ds[i] *= f
	}
	return ds, nil
}

// percentile interpolates linearly between closest ranks; xs need not be
// sorted. It returns NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// timingSummary describes op times in seconds by their median and the
// highest of p90, p99 and p99.9 that has at least ten samples beyond it,
// with the sample count.
func timingSummary(xs []float64) string {
	s := fmt.Sprintf("p50 %.4g ms", ms(median(xs)))
	for _, p := range []float64{99.9, 99, 90} {
		if float64(len(xs))*(1-p/100) >= 10 {
			s += fmt.Sprintf(", p%g %.4g ms", p, ms(percentile(xs, p)))
			break
		}
	}
	return fmt.Sprintf("%s, n=%d", s, len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// allocatedMB is the process's cumulative heap allocation; differences
// between two readings measure what a phase allocated.
func allocatedMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1e6
}

func ms(d float64) float64 { return d * 1e3 }

// liveHeapMB collects garbage twice (the second pass also empties the
// sync.Pool victim caches) and returns the heap still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// beginPhase collects the garbage set-up left behind, as testing.B does
// before it times, and opens the phase's root span.
func beginPhase(tr *tracer, name string) int {
	runtime.GC()
	return tr.begin(name, 0)
}

// cpuTicks is one reading of the aggregate CPU counters in /proc/stat.
type cpuTicks struct {
	busy, steal float64
	ok          bool
}

// readTicks reads the guest's busy ticks (user, nice, system, irq,
// softirq) and the ticks the hypervisor stole: time a virtual CPU wanted
// to run while the host ran another guest.
func readTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]float64 // user nice system idle iowait irq softirq steal
	for i := range v {
		x, err := strconv.ParseFloat(f[i+1], 64)
		if err != nil {
			return cpuTicks{}
		}
		v[i] = x
	}
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7], ok: true}
}

// stolenShare is the share of the CPU time the guest wanted since t0 that
// the hypervisor gave to other guests. It is 0 where the counters cannot
// be read or too little time has passed to count (a tick is 10 ms).
func stolenShare(t0 cpuTicks) float64 {
	t1 := readTicks()
	if !t0.ok || !t1.ok {
		return 0
	}
	wanted := t1.busy - t0.busy + t1.steal - t0.steal
	if wanted <= 0 {
		return 0
	}
	return (t1.steal - t0.steal) / wanted
}

// unstolen is the factor that turns wall seconds since t0 into unstolen
// seconds: 1 minus the stolen share. While the hypervisor steals a share s
// of a CPU, a thread on it runs for only 1 − s of the wall time, so the
// product is the time it ran. Other tenants' load on shared caches and
// memory stays in the timings.
func unstolen(t0 cpuTicks) float64 { return 1 - stolenShare(t0) }
