package linkbudget

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"dgs/internal/itu"
)

// Test station of the table tests: latitude 0.7 rad, altitude 0.2 km.
const (
	testLatRad   = 0.7
	testHeightKm = 0.2
)

func testSite(tb *Table, t Terminal) *Site {
	s := tb.Site(testLatRad, testHeightKm, t)
	return &s
}

func memoGeometry(elevRad float64) Geometry {
	return Geometry{
		RangeKm:         1200,
		ElevationRad:    elevRad,
		StationLatRad:   testLatRad,
		StationHeightKm: testHeightKm,
	}
}

// TestTableMatchesChain is the table's differential test: at every
// elevation bucket, across a rain/cloud grid that includes zero and keys
// past the tables, for all three polarizations and for a station above
// the rain layer, the table path returns bit-for-bit the ITU chain
// evaluated at the de-quantized key — both the attenuation and the whole
// Es/N0 budget, for the site's own terminal and for another.
func TestTableMatchesChain(t *testing.T) {
	rains := []int{0, 1, 7, 60, 333, rainBuckets - 1, rainBuckets, 1200, 1<<16 - 1}
	clouds := []int{0, 1, 40, 400, 1<<16 - 1}
	sites := []struct{ lat, height float64 }{
		{testLatRad, testHeightKm},
		{-1.2, 3.5}, // rain height 0.5 km at 69°S: the station is above the rain
	}
	if d := itu.RainDepthKm(sites[1].lat, sites[1].height); d > 0 {
		t.Fatalf("fixture: rain-layer depth %v, want <= 0", d)
	}
	elevQs := make([]int, 0, elevBuckets+2)
	for q := 1; q < elevBuckets; q++ {
		elevQs = append(elevQs, q)
	}
	elevQs = append(elevQs, elevBuckets, 20000) // past the table
	var checked int
	for _, pol := range []itu.Polarization{itu.Horizontal, itu.Vertical, itu.Circular} {
		r := DefaultRadio()
		r.Polarization = pol
		tb := NewTable(r)
		for si, sp := range sites {
			site := tb.Site(sp.lat, sp.height, DGSTerminal())
			for n, eq := range elevQs {
				// Every bucket meets one grid point in rotation; every 211th
				// bucket meets the whole grid.
				for k := range rains {
					for c := range clouds {
						if n%211 != 0 && (k+c*len(rains)) != n%(len(rains)*len(clouds)) {
							continue
						}
						rq, cq := rains[k], clouds[c]
						el, rain, cloud := float64(eq)*elevStepRad, float64(rq)*rainStepMmH, float64(cq)*cloudStepKg
						got := tb.attenuation(site.depthKm, eq, rq, cq)
						want := itu.TotalAttenuation(itu.SlantPath{ElevationRad: el, StationHeightKm: sp.height, LatitudeRad: sp.lat},
							r.FreqGHz, rain, cloud, pol)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("pol %d site %d key (%d,%d,%d): table %v, chain %v", pol, si, eq, rq, cq, got, want)
						}
						g := Geometry{RangeKm: 950, ElevationRad: el, StationLatRad: sp.lat, StationHeightKm: sp.height}
						w := Conditions{RainMmH: rain, CloudKgM2: cloud}
						for _, term := range []Terminal{DGSTerminal(), BaselineTerminal()} {
							gotE := tb.EsN0dB(&site, term, g.RangeKm, el, w)
							wantE := EsN0dB(r, term, g, w)
							if math.Float64bits(gotE) != math.Float64bits(wantE) {
								t.Fatalf("pol %d site %d key (%d,%d,%d): table Es/N0 %v, chain %v", pol, si, eq, rq, cq, gotE, wantE)
							}
						}
						checked++
					}
				}
			}
		}
	}
	if checked < 3*2*elevBuckets {
		t.Fatalf("only %d keys checked", checked)
	}
}

// TestMemoCloseToExact: quantizing the link inputs moves Es/N0 by far less
// than a MODCOD step.
func TestMemoCloseToExact(t *testing.T) {
	r := DefaultRadio()
	term := DGSTerminal()
	tb := NewTable(r)
	site := testSite(tb, term)
	for _, elev := range []float64{0.05, 0.2, 0.7, 1.3} {
		for _, w := range []Conditions{{}, {RainMmH: 3.5, CloudKgM2: 0.4}, {RainMmH: 22, CloudKgM2: 1.2}} {
			g := memoGeometry(elev)
			exact := EsN0dB(r, term, g, w)
			quant := tb.EsN0dB(site, term, g.RangeKm, g.ElevationRad, w)
			if math.Abs(exact-quant) > 0.05 {
				t.Fatalf("elev=%.2f w=%+v: quantized Es/N0 %.3f dB vs exact %.3f dB (quantization too coarse)",
					elev, w, quant, exact)
			}
		}
	}
}

// TestMemoValueIsPureFunctionOfBucket: two inputs in the same bucket yield
// the same rate, whichever is evaluated first and on whichever table —
// the property that keeps the parallel planner deterministic across
// worker counts.
func TestMemoValueIsPureFunctionOfBucket(t *testing.T) {
	term := DGSTerminal()
	w := Conditions{CloudKgM2: 0.21}
	lo, hi := 0.400001, 0.400009 // same 1e-4 rad bucket

	a, b := NewTable(DefaultRadio()), NewTable(DefaultRadio())
	sa, sb := testSite(a, term), testSite(b, term)
	rateLoFirst := a.RateBps(sa, term, 1200, lo, w)
	_ = a.RateBps(sa, term, 1200, hi, w)
	_ = b.RateBps(sb, term, 1200, hi, w)
	rateLoSecond := b.RateBps(sb, term, 1200, lo, w)
	if rateLoFirst != rateLoSecond {
		t.Fatalf("evaluation order changed the rate: %v vs %v", rateLoFirst, rateLoSecond)
	}
	if rateHi := a.RateBps(sa, term, 1200, hi, w); rateHi != rateLoFirst {
		t.Fatalf("same bucket, different rates: %v vs %v", rateHi, rateLoFirst)
	}
}

// TestViewsAgreeRegardlessOfWarmOrder: a rainy key's rate does not depend
// on what the table evaluated before it.
func TestViewsAgreeRegardlessOfWarmOrder(t *testing.T) {
	term := DGSTerminal()
	tb := NewTable(DefaultRadio())
	site := testSite(tb, term)
	w := Conditions{RainMmH: 2.4, CloudKgM2: 0.15}
	cold := tb.RateBps(site, term, 1200, 0.400001, w)
	for k := 0; k < 100; k++ {
		tb.RateBps(site, term, 900+float64(k), 0.1+float64(k)*0.01, Conditions{RainMmH: float64(k)})
	}
	if warm := tb.RateBps(site, term, 1200, 0.400009, w); warm != cold {
		t.Fatalf("rate changed after other evaluations: %v vs %v", warm, cold)
	}
}

// TestViewMatchesMemo: the rate's terminal terms are cached per site; a
// different terminal (a beamforming split) must be evaluated, not served
// the cached terms.
func TestViewMatchesMemo(t *testing.T) {
	r := DefaultRadio()
	tb := NewTable(r)
	site := testSite(tb, DGSTerminal())
	split := DGSTerminal()
	split.Efficiency /= 3
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 2000; k++ {
		g := memoGeometry(0.05 + float64(rng.Intn(40))*0.02)
		w := Conditions{RainMmH: float64(rng.Intn(6)) * 0.8, CloudKgM2: float64(rng.Intn(4)) * 0.3}
		for _, term := range []Terminal{DGSTerminal(), split} {
			ref := tb.Site(testLatRad, testHeightKm, term)
			got := tb.RateBps(site, term, g.RangeKm, g.ElevationRad, w)
			want := tb.RateBps(&ref, term, g.RangeKm, g.ElevationRad, w)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("terminal %+v: rate %v through another site's terms, %v through its own", term, got, want)
			}
		}
	}
	g := memoGeometry(0.3)
	if tb.EsN0dB(site, split, g.RangeKm, g.ElevationRad, Conditions{}) >= tb.EsN0dB(site, DGSTerminal(), g.RangeKm, g.ElevationRad, Conditions{}) {
		t.Fatal("a third of the aperture did not lower Es/N0")
	}
}

// TestMemoNoLineOfSight: no elevation or no range means no link.
func TestMemoNoLineOfSight(t *testing.T) {
	tb := NewTable(DefaultRadio())
	site := testSite(tb, DGSTerminal())
	for _, g := range []Geometry{memoGeometry(-0.1), memoGeometry(0), {ElevationRad: 0.4}} {
		if rate := tb.RateBps(site, DGSTerminal(), g.RangeKm, g.ElevationRad, Conditions{}); rate != 0 {
			t.Fatalf("geometry %+v: rate = %v, want 0", g, rate)
		}
	}
}

// TestViewNoLineOfSight: below the horizon Es/N0 is −∞, as on the exact
// path.
func TestViewNoLineOfSight(t *testing.T) {
	tb := NewTable(DefaultRadio())
	site := testSite(tb, DGSTerminal())
	g := memoGeometry(-0.1)
	if e := tb.EsN0dB(site, DGSTerminal(), g.RangeKm, g.ElevationRad, Conditions{}); !math.IsInf(e, -1) {
		t.Fatalf("below-horizon Es/N0 = %v, want -Inf", e)
	}
	if e := EsN0dB(DefaultRadio(), DGSTerminal(), g, Conditions{}); !math.IsInf(e, -1) {
		t.Fatalf("exact below-horizon Es/N0 = %v, want -Inf", e)
	}
}

// TestViewSteadyStateAllocFree: the per-edge rate allocates nothing (the
// planner evaluates one per candidate edge), whether the key is in the
// tables, past them, or for a terminal other than the site's.
func TestViewSteadyStateAllocFree(t *testing.T) {
	tb := NewTable(DefaultRadio())
	term := DGSTerminal()
	site := testSite(tb, term)
	other := BaselineTerminal()
	ws := []Conditions{{}, {RainMmH: 0.8, CloudKgM2: 0.2}, {RainMmH: 70, CloudKgM2: 3}}
	probe := func() {
		for i := 0; i < 32; i++ {
			el := 0.1 + float64(i)*0.03
			for _, w := range ws {
				if tb.RateBps(site, term, 1200, el, w) < 0 || tb.RateBps(site, other, 1200, el, w) < 0 {
					t.Fatal("negative rate")
				}
			}
		}
	}
	if n := testing.AllocsPerRun(100, probe); n != 0 {
		t.Fatalf("per-edge rate allocates: %v allocs/run", n)
	}
}

// TestMemoConcurrentAccess: one table serves many goroutines at once (the
// planner's workers share it read-only) and each reads what a lone reader
// would.
func TestMemoConcurrentAccess(t *testing.T) {
	tb := NewTable(DefaultRadio())
	term := BaselineTerminal()
	sites := []Site{tb.Site(0.7, 0.2, term), tb.Site(-0.3, 1.1, term)}
	eval := func(seed, k int) float64 {
		elev := 0.05 + float64((seed*37+k)%100)*0.01
		w := Conditions{RainMmH: float64(k % 5), CloudKgM2: float64(k%3) * 0.2}
		return tb.RateBps(&sites[k%2], term, 1200, elev, w)
	}
	const readers, evals = 8, 200
	var want [readers][evals]float64
	for g := range want {
		for k := range want[g] {
			want[g][k] = eval(g, k)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for k := 0; k < evals; k++ {
				if got := eval(seed, k); got != want[seed][k] {
					t.Errorf("reader %d eval %d: %v, alone %v", seed, k, got, want[seed][k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
