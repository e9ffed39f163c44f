package itu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dgs/internal/astro"
)

func TestRainKAlphaTableAnchors(t *testing.T) {
	// Anchor values from the P.838-3 coefficient table.
	cases := []struct {
		f          float64
		wantK      float64
		wantAlpha  float64
		relK, absA float64
	}{
		{10, 0.01217, 1.2571, 0.05, 0.03},
		{8, 0.004115, 1.3905, 0.08, 0.05},
		{30, 0.2403, 0.9485, 0.05, 0.03},
	}
	for _, c := range cases {
		k, a := RainKAlpha(c.f, Horizontal, 0)
		if math.Abs(k-c.wantK)/c.wantK > c.relK {
			t.Errorf("kH(%g GHz) = %.5f, want %.5f ±%.0f%%", c.f, k, c.wantK, c.relK*100)
		}
		if math.Abs(a-c.wantAlpha) > c.absA {
			t.Errorf("alphaH(%g GHz) = %.4f, want %.4f", c.f, a, c.wantAlpha)
		}
	}
}

func TestRainSpecificAttenuationMonotone(t *testing.T) {
	// γ increases with rain rate at fixed frequency...
	prev := 0.0
	for r := 1.0; r <= 150; r += 5 {
		g := RainSpecificAttenuation(8.2, r, Circular, 30*astro.Deg2Rad)
		if g <= prev {
			t.Fatalf("γ not increasing in rain rate at R=%g: %g <= %g", r, g, prev)
		}
		prev = g
	}
	// ...and with frequency in 4-60 GHz at fixed rain rate.
	prev = 0.0
	for f := 4.0; f <= 60; f += 2 {
		g := RainSpecificAttenuation(f, 25, Circular, 30*astro.Deg2Rad)
		if g <= prev {
			t.Fatalf("γ not increasing in frequency at f=%g: %g <= %g", f, g, prev)
		}
		prev = g
	}
}

func TestRainZeroRate(t *testing.T) {
	if RainSpecificAttenuation(10, 0, Circular, 0.5) != 0 {
		t.Error("zero rain must give zero specific attenuation")
	}
	p := SlantPath{ElevationRad: 0.5, LatitudeRad: 0.7}
	if RainPathAttenuation(p, 10, 0, Circular) != 0 {
		t.Error("zero rain must give zero path attenuation")
	}
}

func TestCircularPolarizationBetweenHAndV(t *testing.T) {
	f := func(fr float64) bool {
		freq := 2 + math.Mod(math.Abs(fr), 48)
		if math.IsNaN(freq) {
			return true
		}
		gh := RainSpecificAttenuation(freq, 30, Horizontal, 0.5)
		gv := RainSpecificAttenuation(freq, 30, Vertical, 0.5)
		gc := RainSpecificAttenuation(freq, 30, Circular, 0.5)
		lo, hi := math.Min(gh, gv), math.Max(gh, gv)
		return gc >= lo-1e-9 && gc <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRainHeight(t *testing.T) {
	if h := RainHeightKm(0); h != 5.0 {
		t.Errorf("equatorial rain height = %g", h)
	}
	if h := RainHeightKm(60 * astro.Deg2Rad); h >= 5.0 {
		t.Errorf("high-latitude rain height should drop below 5 km, got %g", h)
	}
	// Symmetric in hemisphere.
	if RainHeightKm(0.8) != RainHeightKm(-0.8) {
		t.Error("rain height must be hemisphere-symmetric")
	}
	// Never negative, even at the poles.
	if h := RainHeightKm(math.Pi / 2); h <= 0 {
		t.Errorf("polar rain height %g", h)
	}
}

func TestPaperAnchorRainFadeXBand(t *testing.T) {
	// Paper §1/§3.2: "attenuation of 10-25 dB due to rain and clouds" and
	// ">10 dB at 10 GHz" for the time-varying component. Heavy rain at low
	// elevation in X band must be able to exceed 10 dB.
	p := SlantPath{ElevationRad: 10 * astro.Deg2Rad, LatitudeRad: 35 * astro.Deg2Rad}
	a := RainPathAttenuation(p, 10, 50, Circular)
	if a < 10 {
		t.Errorf("50 mm/h at 10° elevation, 10 GHz: %f dB, paper expects >10 dB possible", a)
	}
	// Light drizzle at high elevation should be a small penalty.
	p.ElevationRad = 70 * astro.Deg2Rad
	a = RainPathAttenuation(p, 8.2, 2, Circular)
	if a > 3 {
		t.Errorf("2 mm/h at 70°: %f dB, expected small", a)
	}
}

func TestRainPathElevationMonotone(t *testing.T) {
	// Lower elevation ⇒ longer path through rain ⇒ more attenuation. The
	// horizontal reduction factor makes the curve flat (±0.5%) near zenith,
	// so allow that much slack.
	prev := math.Inf(1)
	for el := 5.0; el <= 80; el += 5 {
		p := SlantPath{ElevationRad: el * astro.Deg2Rad, LatitudeRad: 0.6}
		a := RainPathAttenuation(p, 8.2, 20, Circular)
		if a > prev*1.005 {
			t.Fatalf("attenuation not decreasing with elevation at %g°: %g > %g", el, a, prev)
		}
		prev = a
	}
	// Zenith stays far below the low-elevation values even with the
	// reduction-factor plateau.
	zen := RainPathAttenuation(SlantPath{ElevationRad: math.Pi / 2, LatitudeRad: 0.6}, 8.2, 20, Circular)
	low := RainPathAttenuation(SlantPath{ElevationRad: 10 * astro.Deg2Rad, LatitudeRad: 0.6}, 8.2, 20, Circular)
	if zen >= low/2 {
		t.Fatalf("zenith %g dB vs 10° %g dB: expected large contrast", zen, low)
	}
}

func TestStationAboveRainLayer(t *testing.T) {
	p := SlantPath{ElevationRad: 0.5, LatitudeRad: 0.6, StationHeightKm: 6.0}
	if a := RainPathAttenuation(p, 12, 30, Circular); a != 0 {
		t.Errorf("station above rain height should see 0 dB, got %g", a)
	}
}

func TestCloudCoefficientAnchors(t *testing.T) {
	// P.840: K_l at 10 GHz, 273.15 K is ≈ 0.1 (dB/km)/(g/m³); it grows
	// roughly with f² in the Rayleigh regime.
	k10 := CloudSpecificCoefficient(10, 273.15)
	if k10 < 0.05 || k10 > 0.2 {
		t.Errorf("K_l(10 GHz) = %g, want ~0.1", k10)
	}
	k30 := CloudSpecificCoefficient(30, 273.15)
	if k30/k10 < 4 || k30/k10 > 12 {
		t.Errorf("K_l(30)/K_l(10) = %g, want roughly f² scaling (~9)", k30/k10)
	}
}

func TestCloudPathAttenuation(t *testing.T) {
	p := SlantPath{ElevationRad: 30 * astro.Deg2Rad}
	// 1 kg/m² of cloud water in X band is a ~fraction-of-a-dB effect at 30°.
	a := CloudPathAttenuation(p, 8.2, 1.0)
	if a <= 0 || a > 2 {
		t.Errorf("cloud attenuation %g dB out of (0, 2]", a)
	}
	if CloudPathAttenuation(p, 8.2, 0) != 0 {
		t.Error("zero cloud water must cost nothing")
	}
	// Thicker cloud, lower elevation both hurt.
	p2 := SlantPath{ElevationRad: 10 * astro.Deg2Rad}
	if CloudPathAttenuation(p2, 8.2, 1.0) <= a {
		t.Error("lower elevation must increase cloud attenuation")
	}
	if CloudPathAttenuation(p, 8.2, 3.0) <= a {
		t.Error("more cloud water must increase attenuation")
	}
}

func TestGasPathAttenuation(t *testing.T) {
	zenith := GasPathAttenuation(SlantPath{ElevationRad: math.Pi / 2})
	if math.Abs(zenith-GasZenithDB) > 1e-9 {
		t.Errorf("zenith gas attenuation %g != %g", zenith, GasZenithDB)
	}
	low := GasPathAttenuation(SlantPath{ElevationRad: 5 * astro.Deg2Rad})
	if low <= zenith {
		t.Error("gas attenuation must grow toward the horizon")
	}
}

func TestTotalAttenuationIsSumOfParts(t *testing.T) {
	p := SlantPath{ElevationRad: 25 * astro.Deg2Rad, LatitudeRad: 0.5}
	r := RainPathAttenuation(p, 8.2, 12, Circular)
	c := CloudPathAttenuation(p, 8.2, 0.8)
	g := GasPathAttenuation(p)
	tot := TotalAttenuation(p, 8.2, 12, 0.8, Circular)
	if math.Abs(tot-(r+c+g)) > 1e-12 {
		t.Errorf("total %g != sum %g", tot, r+c+g)
	}
}

func TestHorizonClampKeepsAttenuationFinite(t *testing.T) {
	p := SlantPath{ElevationRad: 0, LatitudeRad: 0.5}
	a := TotalAttenuation(p, 8.2, 30, 1, Circular)
	if math.IsInf(a, 0) || math.IsNaN(a) || a <= 0 {
		t.Fatalf("horizon attenuation must be finite and positive, got %g", a)
	}
	if a > 500 {
		t.Fatalf("horizon attenuation %g dB absurdly large", a)
	}
}

func TestAttenuationNonNegativeProperty(t *testing.T) {
	f := func(el, rain, cloud float64) bool {
		p := SlantPath{
			ElevationRad: math.Mod(math.Abs(el), math.Pi/2),
			LatitudeRad:  0.4,
		}
		r := math.Mod(math.Abs(rain), 150)
		c := math.Mod(math.Abs(cloud), 5)
		if math.IsNaN(r) || math.IsNaN(c) || math.IsNaN(p.ElevationRad) {
			return true
		}
		a := TotalAttenuation(p, 8.2, r, c, Circular)
		return a >= 0 && !math.IsNaN(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLowFrequencyRainNegligible(t *testing.T) {
	// §4: the paper validates the link-quality model against SatNOGS
	// measurements at sub-500 MHz and L band, where rain attenuation is
	// known to be negligible — SatNOGS links do not fade in rain. The model
	// must reproduce that: even tropical rain costs < 0.5 dB on a whole
	// UHF/L-band slant path.
	for _, f := range []float64{0.146, 0.437, 1.7} {
		p := SlantPath{ElevationRad: 10 * astro.Deg2Rad, LatitudeRad: 0.4}
		a := RainPathAttenuation(p, f, 50, Circular)
		if a > 0.5 {
			t.Errorf("rain attenuation at %g GHz = %.3f dB, should be negligible", f, a)
		}
		// And orders of magnitude below X band.
		x := RainPathAttenuation(p, 8.2, 50, Circular)
		if a > x/20 {
			t.Errorf("%g GHz attenuation %.3f dB not ≪ X-band %.1f dB", f, a, x)
		}
	}
}

// TestSincosMatchesSin pins what NewSlant's single Sincos relies on: the
// cloud and gas terms once took their sine from math.Sin, and it agrees
// bitwise with the sine from math.Sincos, at every elevation bucket of
// the link table and at random angles.
func TestSincosMatchesSin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 200000; k++ {
		x := float64(k) * 1e-4
		if x > math.Pi/2+1e-3 {
			x = rng.Float64() * math.Pi
		}
		s, _ := math.Sincos(x)
		if math.Float64bits(s) != math.Float64bits(math.Sin(x)) {
			t.Fatalf("Sin(%v) = %v, Sincos gives %v", x, math.Sin(x), s)
		}
	}
}
