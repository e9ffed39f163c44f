package linkbudget

import (
	"math"

	"dgs/internal/itu"
)

// Quantization steps of the planner's link evaluation. The ITU chain
// varies smoothly in its inputs: quantizing elevation to 0.1 mrad
// (~0.006°) and weather to the steps below moves the computed attenuation
// by far less than the DVB-S2 MODCOD threshold spacing, and turns the
// chain's transcendentals into table lookups.
const (
	elevStepRad = 1e-4  // ~0.006° elevation buckets
	rainStepMmH = 0.05  // mm/h rain buckets
	cloudStepKg = 0.005 // kg/m² columnar liquid water buckets
)

// Table extents: every elevation bucket up to the zenith, and rain up to
// the weather model's default peak of 50 mm/h. Keys past either fall back
// to evaluating the chain.
var (
	elevBuckets = int(math.Round(math.Pi/2/elevStepRad)) + 1
	rainBuckets = int(math.Round(50/rainStepMmH)) + 1
)

// Table evaluates links for one radio at quantized (elevation, rain,
// cloud) keys, with the ITU chain's transcendentals precomputed: the rain
// and cloud coefficients of the radio's frequency and polarization, the
// sine and cosine of every elevation bucket, and γ_R and L_0 of every
// rain bucket. A Table is immutable once built, so the planner's workers
// share one without locks, and a key's value is a pure function of the
// key: bit-for-bit the chain evaluated at the de-quantized inputs.
type Table struct {
	radio        Radio
	coef         itu.Coefficients
	sinEl, cosEl []float64 // by elevation bucket
	gamma, l0    []float64 // by rain bucket
}

// NewTable precomputes the link table for a radio (about 270 KB).
func NewTable(r Radio) *Table {
	tb := &Table{
		radio: r,
		coef:  itu.NewCoefficients(r.FreqGHz, r.Polarization),
		sinEl: make([]float64, elevBuckets),
		cosEl: make([]float64, elevBuckets),
		gamma: make([]float64, rainBuckets),
		l0:    make([]float64, rainBuckets),
	}
	for q := range tb.sinEl {
		s := itu.NewSlant(float64(q)*elevStepRad, 0)
		tb.sinEl[q], tb.cosEl[q] = s.SinEl, s.CosEl
	}
	for q := range tb.gamma {
		rain := float64(q) * rainStepMmH
		tb.gamma[q], tb.l0[q] = tb.coef.Gamma(rain), itu.ReductionLengthKm(rain)
	}
	return tb
}

// Radio returns the radio the table was built for.
func (tb *Table) Radio() Radio { return tb.radio }

// Site is one ground station's share of the link evaluation: the
// rain-layer depth above it and its terminal's gain and noise power at the
// table's radio. Build one per station with Table.Site.
type Site struct {
	depthKm  float64
	term     Terminal
	gainDBi  float64
	noiseDBW float64
}

// Site precomputes a station's terms for a terminal at the given latitude
// (radians) and altitude (km).
func (tb *Table) Site(latRad, heightKm float64, t Terminal) Site {
	gain, noise := terminalDB(tb.radio, t)
	return Site{depthKm: itu.RainDepthKm(latRad, heightKm), term: t, gainDBi: gain, noiseDBW: noise}
}

// quantize buckets the continuous attenuation inputs. Elevation is kept at
// least one bucket above the horizon, away from the slant-path model's
// pole; the upper clamps keep absurd inputs inside int range and are far
// beyond any physical value.
func quantize(elevRad float64, w Conditions) (elevQ, rainQ, cloudQ int) {
	elevQ = int(math.Round(elevRad / elevStepRad))
	if elevQ < 1 {
		elevQ = 1
	}
	if elevQ > 1<<24-1 {
		elevQ = 1<<24 - 1
	}
	rainQ = int(math.Round(w.RainMmH / rainStepMmH))
	if rainQ < 0 {
		rainQ = 0
	}
	if rainQ > 1<<16-1 {
		rainQ = 1<<16 - 1
	}
	cloudQ = int(math.Round(w.CloudKgM2 / cloudStepKg))
	if cloudQ < 0 {
		cloudQ = 0
	}
	if cloudQ > 1<<16-1 {
		cloudQ = 1<<16 - 1
	}
	return
}

// attenuation evaluates the chain at a quantized key, reading the tables
// where the key falls inside them.
func (tb *Table) attenuation(depthKm float64, elevQ, rainQ, cloudQ int) float64 {
	var s itu.Slant
	if elevQ < len(tb.sinEl) {
		s = itu.Slant{SinEl: tb.sinEl[elevQ], CosEl: tb.cosEl[elevQ], DepthKm: depthKm}
	} else {
		s = itu.NewSlant(float64(elevQ)*elevStepRad, depthKm)
	}
	rain := float64(rainQ) * rainStepMmH
	var gamma, l0 float64
	if rainQ < len(tb.gamma) {
		gamma, l0 = tb.gamma[rainQ], tb.l0[rainQ]
	} else {
		gamma, l0 = tb.coef.Gamma(rain), itu.ReductionLengthKm(rain)
	}
	return tb.coef.Total(s, rain, gamma, l0, float64(cloudQ)*cloudStepKg)
}

// EsN0dB is EsN0dB for a site, with the weather attenuation evaluated at
// the quantized key.
func (tb *Table) EsN0dB(s *Site, t Terminal, rangeKm, elevRad float64, w Conditions) float64 {
	if elevRad <= 0 || rangeKm <= 0 {
		return math.Inf(-1)
	}
	gain, noise := s.gainDBi, s.noiseDBW
	if t != s.term {
		gain, noise = terminalDB(tb.radio, t)
	}
	elevQ, rainQ, cloudQ := quantize(elevRad, w)
	return esN0(tb.radio, rangeKm, tb.attenuation(s.depthKm, elevQ, rainQ, cloudQ), gain, noise)
}

// RateBps is RateBps for a site, with the weather attenuation evaluated at
// the quantized key.
func (tb *Table) RateBps(s *Site, t Terminal, rangeKm, elevRad float64, w Conditions) float64 {
	return rateFromEsN0(tb.radio, t, tb.EsN0dB(s, t, rangeKm, elevRad, w))
}
