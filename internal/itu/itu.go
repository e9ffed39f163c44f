// Package itu implements the International Telecommunication Union
// propagation models the DGS link-quality estimator relies on (paper §3.2,
// references [19-21]):
//
//   - ITU-R P.838-3: specific attenuation due to rain (k, α regression).
//   - ITU-R P.839: rain height above mean sea level. The recommendation's
//     digital maps need external data files; this package uses the
//     latitude-based approximation of P.839-2, which the slant-path model
//     only consumes at ±0.5 km accuracy.
//   - ITU-R P.840: attenuation due to clouds and fog, with the double-Debye
//     water permittivity model.
//   - A simplified P.618-style effective slant path with horizontal
//     reduction, and a flat P.676-style gaseous term.
//
// All attenuations are in dB, frequencies in GHz, rain rates in mm/h.
package itu

import (
	"math"

	"dgs/internal/astro"
)

// Polarization selects the k/α coefficient mix for rain attenuation.
type Polarization int

// Supported polarizations.
const (
	// Horizontal linear polarization.
	Horizontal Polarization = iota
	// Vertical linear polarization.
	Vertical
	// Circular polarization (tilt τ=45°), used by most EO downlinks.
	Circular
)

// p838Coeff is one Gaussian term of the P.838-3 regression.
type p838Coeff struct{ a, b, c float64 }

// P.838-3 regression tables for log10(k) (4 terms) and α (5 terms).
var (
	kHTerms = []p838Coeff{
		{-5.33980, -0.10008, 1.13098},
		{-0.35351, 1.26970, 0.45400},
		{-0.23789, 0.86036, 0.15354},
		{-0.94158, 0.64552, 0.16817},
	}
	kHm, kHc = -0.18961, 0.71147

	kVTerms = []p838Coeff{
		{-3.80595, 0.56934, 0.81061},
		{-3.44965, -0.22911, 0.51059},
		{-0.39902, 0.73042, 0.11899},
		{0.50167, 1.07319, 0.27195},
	}
	kVm, kVc = -0.16398, 0.63297

	aHTerms = []p838Coeff{
		{-0.14318, 1.82442, -0.55187},
		{0.29591, 0.77564, 0.19822},
		{0.32177, 0.63773, 0.13164},
		{-5.37610, -0.96230, 1.47828},
		{16.1721, -3.29980, 3.43990},
	}
	aHm, aHc = 0.67849, -1.95537

	aVTerms = []p838Coeff{
		{-0.07771, 2.33840, -0.76284},
		{0.56727, 0.95545, 0.54039},
		{-0.20238, 1.14520, 0.26809},
		{-48.2991, 0.791669, 0.116226},
		{48.5833, 0.791459, 0.116479},
	}
	aVm, aVc = -0.053739, 0.83433
)

func regress(terms []p838Coeff, m, c, logF float64) float64 {
	s := m*logF + c
	for _, t := range terms {
		d := (logF - t.b) / t.c
		s += t.a * math.Exp(-d*d)
	}
	return s
}

// RainKAlpha returns the P.838-3 k and α coefficients for the given
// frequency (GHz), polarization, and path elevation angle (radians; only
// used for Circular/tilted mixing). The recommendation covers 1-1000 GHz;
// outside that range the frequency is clamped, which is conservative: real
// rain attenuation below 1 GHz falls further and is already negligible
// (the SatNOGS VHF/UHF regime the paper validates against).
func RainKAlpha(freqGHz float64, pol Polarization, elevRad float64) (k, alpha float64) {
	logF := math.Log10(astro.Clamp(freqGHz, 1, 1000))
	kH := math.Pow(10, regress(kHTerms, kHm, kHc, logF))
	kV := math.Pow(10, regress(kVTerms, kVm, kVc, logF))
	aH := regress(aHTerms, aHm, aHc, logF)
	aV := regress(aVTerms, aVm, aVc, logF)

	switch pol {
	case Horizontal:
		return kH, aH
	case Vertical:
		return kV, aV
	default:
		// Circular: tilt τ=45° ⇒ cos(2τ)=0; the elevation term vanishes too.
		_ = elevRad
		k = (kH + kV) / 2
		alpha = (kH*aH + kV*aV) / (2 * k)
		return k, alpha
	}
}

// Coefficients are the frequency- and polarization-dependent constants of
// the attenuation chain: the P.838-3 rain regression and the P.840 cloud
// coefficient. They cost a few dozen transcendentals yet never change for
// a given radio, so callers that evaluate many paths compute them once.
type Coefficients struct {
	// K and Alpha are the P.838-3 rain coefficients.
	K, Alpha float64
	// Kl is the P.840 cloud coefficient at 273.15 K.
	Kl float64
}

// NewCoefficients evaluates the chain's constants for a carrier frequency
// (GHz) and polarization.
func NewCoefficients(freqGHz float64, pol Polarization) Coefficients {
	k, alpha := RainKAlpha(freqGHz, pol, 0)
	return Coefficients{K: k, Alpha: alpha, Kl: CloudSpecificCoefficient(freqGHz, cloudTempK)}
}

// Gamma returns γ_R = k·R^α in dB/km for a positive rain rate R (mm/h),
// P.838-3 Eq. 1.
func (c Coefficients) Gamma(rainMmH float64) float64 {
	return c.K * math.Pow(rainMmH, c.Alpha)
}

// ReductionLengthKm returns the horizontal reduction length
// L_0 = 35·e^(−0.015R) km of the pre-map P.618 method, with R capped at
// 100 mm/h.
func ReductionLengthKm(rainMmH float64) float64 {
	return 35 * math.Exp(-0.015*math.Min(rainMmH, 100))
}

// RainSpecificAttenuation returns γ_R = k·R^α in dB/km for rain rate R
// (mm/h) at the given frequency and polarization (P.838-3 Eq. 1).
func RainSpecificAttenuation(freqGHz, rainMmH float64, pol Polarization, elevRad float64) float64 {
	if rainMmH <= 0 {
		return 0
	}
	k, alpha := RainKAlpha(freqGHz, pol, elevRad)
	return Coefficients{K: k, Alpha: alpha}.Gamma(rainMmH)
}

// RainHeightKm returns the mean rain height above sea level for a latitude
// (radians), following the latitude-banded approximation of P.839-2.
func RainHeightKm(latRad float64) float64 {
	absLat := math.Abs(latRad) * astro.Rad2Deg
	if absLat <= 23 {
		return 5.0
	}
	h := 5.0 - 0.075*(absLat-23)
	if h < 0.5 {
		h = 0.5 // never below a minimal melting layer
	}
	return h
}

// SlantPath describes the geometry of an Earth-space path for attenuation
// integration.
type SlantPath struct {
	// ElevationRad is the path elevation above the horizon. Values below
	// 0.5° are clamped: the flat-slab geometry diverges at the horizon.
	ElevationRad float64
	// StationHeightKm is the station altitude above mean sea level.
	StationHeightKm float64
	// LatitudeRad is the station geodetic latitude (for rain height).
	LatitudeRad float64
}

// minElevation keeps the cosecant geometry bounded near the horizon.
const minElevationRad = 0.5 * astro.Deg2Rad

// RainDepthKm returns the depth of the rain layer above a station, the
// mean rain height at its latitude minus its altitude (km). Non-positive
// depth means the station sits above the rain.
func RainDepthKm(latRad, heightKm float64) float64 {
	return RainHeightKm(latRad) - heightKm
}

// Slant is a path reduced to the geometry terms the chain reads: the sine
// and cosine of the elevation, clamped at 0.5°, and the rain-layer depth.
type Slant struct {
	SinEl, CosEl float64
	DepthKm      float64
}

// NewSlant evaluates the geometry terms for an elevation (radians) and a
// rain-layer depth (km, see RainDepthKm).
func NewSlant(elevRad, depthKm float64) Slant {
	sinEl, cosEl := math.Sincos(math.Max(elevRad, minElevationRad))
	return Slant{SinEl: sinEl, CosEl: cosEl, DepthKm: depthKm}
}

func (p SlantPath) slant() Slant {
	return NewSlant(p.ElevationRad, RainDepthKm(p.LatitudeRad, p.StationHeightKm))
}

// rain is the effective-path-length rain attenuation (see
// RainPathAttenuation) for precomputed γ_R and L_0.
func (s Slant) rain(gamma, l0 float64) float64 {
	ls := s.DepthKm / s.SinEl
	r := 1 / (1 + ls*s.CosEl/l0)
	return gamma * ls * r
}

// cloud is L·K_l/sin θ.
func (s Slant) cloud(columnarKgM2, kl float64) float64 {
	return columnarKgM2 * kl / s.SinEl
}

// gas is the zenith gaseous attenuation scaled by the cosecant.
func (s Slant) gas() float64 {
	return GasZenithDB / s.SinEl
}

// Total sums rain, cloud and gas attenuation in dB: the one implementation
// of the chain, behind TotalAttenuation and behind callers that keep the
// coefficients and per-path terms in tables. The rain term is on for a
// positive rain rate and a station below the rain layer, and then reads
// gamma = c.Gamma(rainMmH) and l0 = ReductionLengthKm(rainMmH); the cloud
// term is on for positive liquid water.
func (c Coefficients) Total(s Slant, rainMmH, gamma, l0, cloudKgM2 float64) float64 {
	var rain, cloud float64
	if rainOn(s, rainMmH) {
		rain = s.rain(gamma, l0)
	}
	if !(cloudKgM2 <= 0) {
		cloud = s.cloud(cloudKgM2, c.Kl)
	}
	return rain + cloud + s.gas()
}

// rainOn reports whether the rain term applies. The negated comparisons
// keep a NaN input flowing into the result rather than reading as dry.
func rainOn(s Slant, rainMmH float64) bool {
	return !(rainMmH <= 0) && !(s.DepthKm <= 0)
}

// RainPathAttenuation returns the total rain attenuation in dB along the
// slant path for the given rain rate, using the effective-path-length
// horizontal reduction factor of the pre-map P.618 method:
//
//	L_s = (h_R − h_s)/sin θ,  r = 1/(1 + L_s·cosθ/L_0),  L_0 = 35·e^(−0.015R)
//	A = γ_R · L_s · r
func RainPathAttenuation(p SlantPath, freqGHz, rainMmH float64, pol Polarization) float64 {
	s := p.slant()
	if !rainOn(s, rainMmH) {
		return 0
	}
	return s.rain(RainSpecificAttenuation(freqGHz, rainMmH, pol, 0), ReductionLengthKm(rainMmH))
}

// waterPermittivity returns the complex permittivity (ε′, ε″) of liquid
// water at frequency f (GHz) and temperature T (K) from the double-Debye
// model of P.840.
func waterPermittivity(freqGHz, tempK float64) (ePrime, eDoublePrime float64) {
	th := 300 / tempK
	e0 := 77.66 + 103.3*(th-1)
	e1 := 0.0671 * e0
	e2 := 3.52
	fp := 20.20 - 146*(th-1) + 316*(th-1)*(th-1)
	fs := 39.8 * fp
	f := freqGHz
	ePrime = (e0-e1)/(1+(f/fp)*(f/fp)) + (e1-e2)/(1+(f/fs)*(f/fs)) + e2
	eDoublePrime = f*(e0-e1)/(fp*(1+(f/fp)*(f/fp))) + f*(e1-e2)/(fs*(1+(f/fs)*(f/fs)))
	return ePrime, eDoublePrime
}

// CloudSpecificCoefficient returns K_l in (dB/km)/(g/m³) for cloud liquid
// water at the given frequency and temperature (P.840 Rayleigh model).
func CloudSpecificCoefficient(freqGHz, tempK float64) float64 {
	ePrime, eDoublePrime := waterPermittivity(freqGHz, tempK)
	eta := (2 + ePrime) / eDoublePrime
	return 0.819 * freqGHz / (eDoublePrime * (1 + eta*eta))
}

// cloudTempK is the standard cloud temperature of P.840.
const cloudTempK = 273.15

// CloudPathAttenuation returns cloud attenuation in dB for a columnar
// liquid-water content L (kg/m²) along the slant path (P.840 Eq. A = L·K_l/sinθ).
// The standard cloud temperature of 273.15 K is assumed.
func CloudPathAttenuation(p SlantPath, freqGHz, columnarKgM2 float64) float64 {
	if columnarKgM2 <= 0 {
		return 0
	}
	return p.slant().cloud(columnarKgM2, CloudSpecificCoefficient(freqGHz, cloudTempK))
}

// GasZenithDB is the clear-air zenith gaseous attenuation used by
// GasPathAttenuation. At X band the P.676 value is ≈0.2-0.3 dB; we use a
// mildly conservative constant since DGS needs margins, not spectroscopy.
const GasZenithDB = 0.25

// GasPathAttenuation returns a simplified P.676 gaseous attenuation: the
// zenith value scaled by the cosecant of elevation.
func GasPathAttenuation(p SlantPath) float64 {
	return p.slant().gas()
}

// TotalAttenuation sums rain, cloud, and gas attenuation in dB for a path.
// It evaluates only the coefficients the weather switches on.
func TotalAttenuation(p SlantPath, freqGHz, rainMmH, cloudKgM2 float64, pol Polarization) float64 {
	s := p.slant()
	var c Coefficients
	var gamma, l0 float64
	if rainOn(s, rainMmH) {
		c.K, c.Alpha = RainKAlpha(freqGHz, pol, 0)
		gamma, l0 = c.Gamma(rainMmH), ReductionLengthKm(rainMmH)
	}
	if !(cloudKgM2 <= 0) {
		c.Kl = CloudSpecificCoefficient(freqGHz, cloudTempK)
	}
	return c.Total(s, rainMmH, gamma, l0, cloudKgM2)
}
