package main

import (
	"fmt"
	"time"

	"dgs"
	"dgs/internal/core"
	"dgs/internal/frames"
	"dgs/internal/linkbudget"
	"dgs/internal/match"
	"dgs/internal/orbit"
	"dgs/internal/passes"
	"dgs/internal/poscache"
	"dgs/internal/sgp4"
	"dgs/internal/station"
	"dgs/internal/tle"
	"dgs/internal/weather"
)

// planInput is one workload's planning problem: the population, the
// forecast (nil = clear sky) and the horizon on the slot grid.
type planInput struct {
	props   []orbit.Propagator
	net     station.Network
	fc      *weather.Forecast
	start   time.Time
	horizon time.Duration
	slot    time.Duration
	genRate float64
	snaps   []core.SatSnapshot
}

// gbBits is one gigabyte in bits.
const gbBits = 8e9

// populationSeed fixes the satellites and stations of every workload, as
// the paper's are fixed. --seed draws the weather, queue state and
// requests, so another seed changes the inputs but not the amount of work.
const populationSeed = 0

func propagators(tles []tle.TLE) ([]orbit.Propagator, error) {
	props := make([]orbit.Propagator, len(tles))
	for i, el := range tles {
		p, err := sgp4.New(el)
		if err != nil {
			return nil, fmt.Errorf("propagator %d: %w", i, err)
		}
		props[i] = p
	}
	return props, nil
}

// visiblePair is one (slot, satellite, station) the planner evaluates
// exactly, with the link inputs it needs.
type visiblePair struct {
	slot, sat, station int32
	geo                linkbudget.Geometry
	cond               linkbudget.Conditions
}

// probeLayers calls each layer once on fresh state over the workload's
// horizon, one span per call: the position fill, the pass-window scan as
// the planner runs it and as the query API runs it (with AOS/LOS
// refinement), a cold PlanEpoch, the ITU rate chain on every visible
// pair-slot, and stable matching on the per-slot graphs those rates form.
func probeLayers(tr *tracer, in planInput, o *outcome) error {
	root := tr.begin(spanProbes, 0)
	defer tr.end(root, nil)

	n := int(in.horizon / in.slot)
	grid := make([]time.Time, n)
	for k := range grid {
		grid[k] = in.start.Add(time.Duration(k) * in.slot)
	}
	end := in.start.Add(in.horizon)

	cache := poscache.New(in.props)
	id := tr.begin(spanFill, root)
	cache.AtRange(grid)
	tr.end(id, map[string]float64{"positions": float64(len(in.props) * n)})

	// The planner's scan: the slot grid as stride and tolerance, so no
	// bisection (core's predictPairs configuration).
	pred := passes.New(cache, in.net, passes.Config{CoarseStep: in.slot, Tol: in.slot})
	id = tr.begin(spanWindows, root)
	ws := pred.WindowsBetween(nil, in.start, end)
	st := pred.Stats()
	tr.end(id, map[string]float64{
		"windows": float64(len(ws)), "candidate_pairs": float64(st.CandidatePairs),
		"cross_pairs": float64(st.CrossPairs), "refine_bisections": float64(st.RefineBisections),
	})

	// The query API's scan: default stride with 1 s AOS/LOS refinement.
	ref := passes.New(cache, in.net, passes.Config{})
	id = tr.begin(spanRefine, root)
	rws := ref.WindowsBetween(nil, in.start, end)
	rst := ref.Stats()
	tr.end(id, map[string]float64{"windows": float64(len(rws)), "refine_bisections": float64(rst.RefineBisections)})

	pairs, pairSlots := coveredPairs(cache, in, ws, grid)

	sched := &core.Scheduler{Radio: linkbudget.DefaultRadio(), Stations: in.net, Forecast: in.fc}
	id = tr.begin(spanColdPlan, root)
	plan := sched.PlanEpoch(in.snaps, in.start, in.horizon, in.slot, in.genRate)
	tr.end(id, map[string]float64{"pair_slots": float64(pairSlots), "assigned": float64(assignedCount(plan))})
	o.check("cold-plan-bookings", checkPlan(plan, in.net))

	radio := linkbudget.DefaultRadio()
	terms := make([]linkbudget.Terminal, len(in.net))
	for j, gs := range in.net {
		terms[j] = gs.EffectiveTerminal()
	}
	rates := make([]float64, len(pairs))
	id = tr.begin(spanRate, root)
	for i, p := range pairs {
		rates[i] = linkbudget.RateBps(radio, terms[p.station], p.geo, p.cond)
	}
	tr.end(id, map[string]float64{"evals": float64(len(pairs))})

	// coveredPairs returns pairs in slot order, so each slot's graph is
	// one contiguous run.
	g := match.NewGraph(len(in.props), len(in.net))
	for lo := 0; lo < len(pairs); {
		hi := lo
		for hi < len(pairs) && pairs[hi].slot == pairs[lo].slot {
			hi++
		}
		g.Reset(len(in.props), len(in.net))
		for j, gs := range in.net {
			g.SetCapacity(j, gs.Capacity())
		}
		edges := 0
		for i := lo; i < hi; i++ {
			if rates[i] <= 0 {
				continue
			}
			if err := g.AddEdge(int(pairs[i].sat), int(pairs[i].station), rates[i]); err != nil {
				return fmt.Errorf("slot %d graph: %w", pairs[lo].slot, err)
			}
			edges++
		}
		id = tr.begin(spanStable, root)
		m := match.Stable(g)
		tr.end(id, map[string]float64{"edges": float64(edges), "matched": float64(m.Size())})
		lo = hi
	}
	return nil
}

// coveredPairs lists, in slot order, every (slot, satellite, station)
// whose slot instant a planner window covers and that is above the
// station's mask, with its geometry and forecast conditions; it also
// returns the covered count before the mask test (the pair-slots the
// planner evaluates exactly).
func coveredPairs(cache *poscache.Cache, in planInput, ws passes.Windows, grid []time.Time) ([]visiblePair, int) {
	topo := make([]frames.Topocentric, len(in.net))
	for j, gs := range in.net {
		topo[j] = frames.NewTopocentric(gs.Location)
	}
	var pairs []visiblePair
	covered := 0
	for k, t := range grid {
		pos := cache.At(t)
		for w := range ws.Covering(t) {
			covered++
			e := pos[w.Sat]
			gs := in.net[w.Station]
			if !e.OK {
				continue
			}
			look := topo[w.Station].Look(e.Pos)
			if look.ElevationRad < gs.MinElevationRad {
				continue
			}
			p := visiblePair{slot: int32(k), sat: int32(w.Sat), station: int32(w.Station), geo: linkbudget.Geometry{
				RangeKm: look.RangeKm, ElevationRad: look.ElevationRad,
				StationLatRad: gs.Location.LatRad, StationHeightKm: gs.Location.AltKm,
			}}
			if in.fc != nil {
				s := in.fc.AtLead(gs.Location.LatRad, gs.Location.LonRad, t, t.Sub(in.start))
				p.cond = linkbudget.Conditions{RainMmH: s.RainMmH, CloudKgM2: s.CloudKgM2}
			}
			pairs = append(pairs, p)
		}
	}
	return pairs, covered
}

// planInputFor fills the planning problem with the paper's capture rate
// and one hour of assumed backlog per satellite.
func planInputFor(props []orbit.Propagator, net station.Network, fc *weather.Forecast, horizon time.Duration) planInput {
	genRate := 100 * gbBits / 86400.0
	snaps := make([]core.SatSnapshot, len(props))
	for i, p := range props {
		snaps[i] = core.SatSnapshot{Prop: p, PendingBits: genRate * 3600, OldestAge: time.Hour}
	}
	return planInput{
		props: props, net: net, fc: fc, start: dgs.Start, horizon: horizon,
		slot: time.Minute, genRate: genRate, snaps: snaps,
	}
}
