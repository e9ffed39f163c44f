package core

import (
	"time"

	"dgs/internal/astro"
	"dgs/internal/frames"
	"dgs/internal/linkbudget"
	"dgs/internal/poscache"
	"dgs/internal/spatial"
	"dgs/internal/weather"
)

// VisibleEdge is a feasible link with its predicted rate.
type VisibleEdge struct {
	Sat, Station int
	RateBps      float64
}

// condScratch is the per-worker evaluation scratch: the per-station
// blended weather conditions for one (instant, lead) evaluation and the
// candidate buffer the spatial index appends into. The condition buffers
// are reset per slot; the candidate buffer persists across every slot
// (and epoch) the worker processes.
type condScratch struct {
	cond  []linkbudget.Conditions
	known []bool
	cand  []int32
}

func (cs *condScratch) reset(n int) {
	if cap(cs.cond) >= n {
		cs.cond = cs.cond[:n]
		cs.known = cs.known[:n]
	} else {
		cs.cond = make([]linkbudget.Conditions, n)
		cs.known = make([]bool, n)
	}
	for j := range cs.known {
		cs.known[j] = false
	}
}

// evalCtx bundles the per-call state the edge evaluation needs, so the
// sweep and the pass-window path run the exact same test (any divergence
// would break their bit-identity contract).
type evalCtx struct {
	s        *Scheduler
	stGeo    []stationGeom
	table    *linkbudget.Table
	maxRange float64
	comp     []weather.Sample
	lead     time.Duration
	cs       *condScratch
}

func (ec *evalCtx) condFor(j int) linkbudget.Conditions {
	cs := ec.cs
	if !cs.known[j] {
		if ec.comp != nil {
			w := ec.s.Forecast.BlendAtLead(ec.comp[2*j], ec.comp[2*j+1], ec.lead)
			cs.cond[j] = linkbudget.Conditions{RainMmH: w.RainMmH, CloudKgM2: w.CloudKgM2}
		}
		cs.known[j] = true
	}
	return cs.cond[j]
}

// eval applies the full feasibility test for one candidate pair and
// appends the edge to dst when it survives: constraint bitmap, slant
// range, elevation mask, and a positive forecast-weather rate.
func (ec *evalCtx) eval(dst []VisibleEdge, i, j int, ecef frames.Vec3) []VisibleEdge {
	gs := ec.s.Stations[j]
	if !gs.Allows(i) {
		return dst
	}
	st := &ec.stGeo[j]
	d := ecef.Sub(st.topo.ECEF)
	if d.Norm() > ec.maxRange {
		return dst
	}
	el, rangeKm := st.topo.Elevation(ecef)
	if el <= gs.MinElevationRad {
		return dst
	}
	rate := ec.table.RateBps(&st.site, gs.EffectiveTerminal(), rangeKm, el, ec.condFor(j))
	if rate <= 0 {
		return dst
	}
	return append(dst, VisibleEdge{Sat: i, Station: j, RateBps: rate})
}

// Visibility computes the feasible edges at time t: satellite above the
// station's elevation mask, downlink permitted by the constraint bitmap,
// and a positive predicted rate under forecast weather at the given lead.
//
// A 10° geodetic cell index over the stations keeps the cost proportional
// to stations actually near each ground track, not |S|·|G|.
//
// Visibility is safe for concurrent use (PlanEpoch invokes its internals
// from a worker pool): satellite positions come from the shared
// thread-safe position cache and the link table is immutable.
// It always runs the exhaustive sweep; only PlanEpoch consults the
// pass-window predictor.
func (s *Scheduler) Visibility(sats []SatSnapshot, t time.Time, lead time.Duration) []VisibleEdge {
	return s.visibility(sats, s.positionCache(sats), t, lead)
}

// visibility is Visibility with the position cache already resolved.
func (s *Scheduler) visibility(sats []SatSnapshot, positions *poscache.Cache, t time.Time, lead time.Duration) []VisibleEdge {
	var cs condScratch
	cs.reset(len(s.Stations))
	return s.visibilitySweep(nil, sats, positions, t, lead, &cs)
}

// visibilitySweep appends the feasible edges at t to dst, examining every
// satellite against the stations near its ground track (the exhaustive
// path: no pass-window filtering).
func (s *Scheduler) visibilitySweep(dst []VisibleEdge, sats []SatSnapshot, positions *poscache.Cache, t time.Time, lead time.Duration, cs *condScratch) []VisibleEdge {
	idx, stGeo, table := s.stationIndex()
	cs.reset(len(s.Stations))
	ec := evalCtx{
		s: s, stGeo: stGeo, table: table,
		maxRange: s.maxRange(),
		// Forecast weather per station: the lead-independent field
		// samples come from the shared per-instant cache (hot across
		// overlapping epochs); the per-lead blend is cheap arithmetic
		// done locally.
		comp: s.fcComponents(t), lead: lead, cs: cs,
	}

	cached := positions.At(t)
	for i := range sats {
		if !cached[i].OK {
			continue
		}
		ecef := cached[i].Pos
		sp := spatial.SubPointOf(ecef)
		if !sp.Visible() {
			continue
		}
		cs.cand = idx.AppendNear(cs.cand[:0], sp, spatial.HorizonPsiDeg(sp.RKm))
		for _, j := range cs.cand {
			dst = ec.eval(dst, i, int(j), ecef)
		}
	}
	return dst
}

// visibilityPairs appends the feasible edges at t to dst, evaluating only
// the packed (sat·nGs + station) candidate pairs whose predicted contact
// windows cover t. pairs must be sorted ascending, which makes the edge
// order satellite-major with stations ascending — every consumer of the
// edge list is insensitive to the within-satellite station order, so the
// resulting plans are bit-identical to the sweep's.
func (s *Scheduler) visibilityPairs(dst []VisibleEdge, positions *poscache.Cache, t time.Time, lead time.Duration, pairs []int32, cs *condScratch) []VisibleEdge {
	if len(pairs) == 0 {
		return dst
	}
	_, stGeo, table := s.stationIndex()
	cs.reset(len(s.Stations))
	ec := evalCtx{
		s: s, stGeo: stGeo, table: table,
		maxRange: s.maxRange(),
		comp:     s.fcComponents(t), lead: lead, cs: cs,
	}

	cached := positions.At(t)
	nGs := len(s.Stations)
	lastSat := -1
	var ecef frames.Vec3
	ok := false
	for _, key := range pairs {
		i, j := int(key)/nGs, int(key)%nGs
		if i != lastSat {
			lastSat = i
			e := cached[i]
			ecef = e.Pos
			ok = e.OK && ecef.Norm() > astro.EarthRadiusKm
		}
		if !ok {
			continue
		}
		dst = ec.eval(dst, i, j, ecef)
	}
	return dst
}
