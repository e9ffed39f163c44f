package main

import (
	"fmt"
	"time"

	"dgs"
	"dgs/internal/sim"
	"dgs/internal/weather"
)

// paperSlotsPerPlan is the sim default PlanEvery/Step (30 min / 1 min):
// one timed period is one plan slot and the 29 slots that follow it.
const paperSlotsPerPlan = 30

// paperPeriodsPerSecond sets the timed phase's length from --seconds. At
// --seconds 20 it is 16 periods, 8 simulated hours; the reference host
// needs 9–14 s for them and as long again for the repetition, whose
// timings are pooled with them.
const paperPeriodsPerSecond = 0.8

func paperOptions(e *env) dgs.Options {
	// Days only bounds the simulated span; the timed phase and its
	// repetition stop after a fixed number of periods well inside it.
	return dgs.Options{Seed: populationSeed, Days: 4, Satellites: e.sc.paperSats, Stations: e.sc.paperStations}
}

// weatherSeed derives the weather truth from --seed the way dgs.Config
// derives it from Options.Seed.
func weatherSeed(e *env) uint64 { return uint64(e.seed) + 7 }

// newPaperEngine is the set-up of paper-sim: the population, weather and
// engine of the paper's DGS system, plus the first (cold) step, which
// plans the full 12-h horizon from scratch.
func newPaperEngine(e *env, obs sim.Observer) (*sim.Engine, error) {
	opt := paperOptions(e)
	if obs != nil {
		opt.Observers = []sim.Observer{obs}
	}
	cfg, err := dgs.Config(dgs.SystemDGS, opt)
	if err != nil {
		return nil, err
	}
	cfg.WeatherSeed = weatherSeed(e)
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return eng, eng.Step()
}

// simPhase is what stepping an engine through whole plan periods saw:
// each step's unstolen seconds, whether it was a plan slot, and each
// period's unstolen and wall seconds.
type simPhase struct {
	steps             []float64
	plan              []bool
	periods, wallTime []float64
	failed            int
}

// runSimPhase steps eng through the given number of plan periods. isPlan
// reports whether the step just taken produced an epoch plan.
func runSimPhase(eng *sim.Engine, periods int, tr *tracer, parent int, isPlan func(step int) bool) (*simPhase, error) {
	ph := &simPhase{}
	for len(ph.periods) < periods && !eng.Done() {
		period, first, ticks := 0.0, len(ph.steps), readTicks()
		for k := 0; k < paperSlotsPerPlan && !eng.Done(); k++ {
			id := tr.begin(spanStep, parent)
			t0 := time.Now()
			err := eng.Step()
			d := time.Since(t0).Seconds()
			plan := isPlan(len(ph.steps) + 1)
			attr := 0.0
			if plan {
				attr = 1
			}
			tr.end(id, map[string]float64{"plan": attr})
			if err != nil {
				ph.failed++
				return ph, fmt.Errorf("step %d: %w", len(ph.steps)+1, err)
			}
			ph.steps = append(ph.steps, d)
			ph.plan = append(ph.plan, plan)
			period += d
		}
		f := unstolen(ticks)
		for i := first; i < len(ph.steps); i++ {
			ph.steps[i] *= f
		}
		ph.periods = append(ph.periods, period*f)
		ph.wallTime = append(ph.wallTime, period)
	}
	return ph, nil
}

// finalDigest closes a run with Finalize, gating its conservation check,
// and digests the final Result.
func finalDigest(eng *sim.Engine, o *outcome, gateName string) (string, error) {
	res, err := eng.Finalize()
	o.check(gateName, err)
	return resultDigest(res)
}

// paperSim is the paper's own experiment: 259 satellites, 173 DGS stations
// (10% TX-capable), seeded weather with 0.3 forecast error, 1-min slots
// and 30-min replans over a 12-h horizon, stepped through sim.Engine.
func paperSim(e *env) (*outcome, error) {
	o := &outcome{}
	base := liveHeapMB()
	var timed *sim.Engine
	setup, err := setupReps(func(rep int) error {
		eng, err := newPaperEngine(e, nil)
		if rep == 0 {
			timed = eng
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	// The engine plans on its first step and every 30 steps after it; the
	// set-up took step 0.
	byIndex := func(step int) bool { return step%paperSlotsPerPlan == 0 }
	periods := opsFor(e.seconds, paperPeriodsPerSecond, 1)
	untraced := beginPhase(e.tr, spanUntraced)
	alloc0 := allocatedMB()
	ph, err := runSimPhase(timed, periods, nil, 0, byIndex)
	allocMB := allocatedMB() - alloc0
	e.tr.end(untraced, map[string]float64{"ops": float64(len(ph.steps))})
	o.attempted += len(ph.steps) + ph.failed
	o.failed += ph.failed
	if err != nil {
		o.check("steps", err)
		return o, nil
	}
	if len(ph.periods) < periods {
		return nil, fmt.Errorf("simulated span ended after %d of %d periods", len(ph.periods), periods)
	}
	retained := liveHeapMB() - base
	digest, err := finalDigest(timed, o, "conservation")
	if err != nil {
		return nil, err
	}
	timed = nil

	// Repetition: a fresh engine from identical inputs must reach the same
	// final Result after the same slots.
	verify, err := newPaperEngine(e, nil)
	if err != nil {
		return nil, err
	}
	vph, err := runSimPhase(verify, periods, nil, 0, byIndex)
	o.attempted += len(vph.steps)
	if err != nil {
		o.check("repetition-steps", err)
		return o, nil
	}
	vdigest, err := finalDigest(verify, o, "repetition-conservation")
	if err != nil {
		return nil, err
	}
	o.check("repetition-digest", sameDigest(digest, vdigest))
	o.notes = append(o.notes, fmt.Sprintf("final result digest after %d slots: %s", len(ph.steps), digest))

	// The repetition ran the same periods right after the timed phase, so
	// the timings pool both engines: twice the measured work per run.
	steps := append(append([]float64(nil), ph.steps...), vph.steps...)
	periodTimes := append(append([]float64(nil), ph.periods...), vph.periods...)
	var planSteps []float64
	for i, d := range steps {
		if ph.plan[i%len(ph.plan)] {
			planSteps = append(planSteps, d)
		}
	}
	slotsPerS := paperSlotsPerPlan / median(periodTimes)
	o.e2e = map[string]float64{
		"setup_s":          median(setup),
		"throughput_per_s": slotsPerS,
		"op_p50_ms":        ms(median(steps)),
		"replan_ms":        ms(median(planSteps)),
		"alloc_mb_per_op":  allocMB / float64(len(ph.steps)),
		"heap_retained_mb": retained,
	}
	o.issue = append(o.issue, issueMetric{"sim_slots_per_s", "slots/s", slotsPerS})
	o.notes = append(o.notes, fmt.Sprintf("timed: 2 engines × %d slots in %d periods; slot %s; plan slot %s; slots/s %.4g timed, %.4g repetition, %.4g in wall time; %d set-ups",
		len(ph.steps), len(ph.periods), timingSummary(steps), timingSummary(planSteps),
		paperSlotsPerPlan/median(ph.periods), paperSlotsPerPlan/median(vph.periods),
		paperSlotsPerPlan/median(append(ph.wallTime, vph.wallTime...)), len(setup)))

	if e.tr == nil {
		return o, nil
	}

	// Traced replay of the same periods on a fresh engine; a FuncObserver
	// marks the slots that produced an epoch plan.
	planned := false
	obs := &sim.FuncObserver{Plan: func(ev sim.PlanEvent) {
		if ev.Sat < 0 {
			planned = true
		}
	}}
	replay, err := newPaperEngine(e, obs)
	if err != nil {
		return nil, err
	}
	planned = false // the set-up step planned
	byObserver := func(int) bool {
		p := planned
		planned = false
		return p
	}
	root := beginPhase(e.tr, spanTraced)
	tph, err := runSimPhase(replay, periods, e.tr, root, byObserver)
	e.tr.end(root, map[string]float64{"ops": float64(len(tph.steps))})
	o.attempted += len(tph.steps)
	if err != nil {
		o.check("traced-steps", err)
		return o, nil
	}
	tdigest, err := finalDigest(replay, o, "traced-conservation")
	if err != nil {
		return nil, err
	}
	o.check("traced-digest", sameDigest(digest, tdigest))
	o.check("plan-slot-rule", samePlanSlots(ph.plan, tph.plan))

	in, err := paperPlanInput(e, weatherSeed(e), 12*time.Hour)
	if err != nil {
		return nil, err
	}
	return o, probeLayers(e.tr, in, o)
}

// paperPlanInput rebuilds the paper's population as the simulator and the
// served world derive it, under the forecast of the given weather seed.
func paperPlanInput(e *env, wseed uint64, horizon time.Duration) (planInput, error) {
	tles, net := dgs.Population(paperOptions(e))
	props, err := propagators(tles)
	if err != nil {
		return planInput{}, err
	}
	return planInputFor(props, net, weather.NewForecast(weather.NewField(wseed), 0.3), horizon), nil
}

// samePlanSlots fails when the every-30-steps rule the untraced phase uses
// disagrees with the plan events the traced replay observed.
func samePlanSlots(byRule, observed []bool) error {
	for i := range observed {
		if observed[i] != byRule[i] {
			return fmt.Errorf("step %d: plan event %v, every-%d-steps rule %v", i+1, observed[i], paperSlotsPerPlan, byRule[i])
		}
	}
	return nil
}
