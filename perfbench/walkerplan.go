package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dgs"
	"dgs/internal/core"
	"dgs/internal/linkbudget"
)

// walkerSetup is the set-up of walker-plan: the Walker-delta shell, the
// seeded station network, per-satellite queue state and a fresh Scheduler.
type walkerSetup struct {
	in    planInput
	sched *core.Scheduler
}

func newWalker(e *env) (*walkerSetup, error) {
	opt := dgs.Options{Walker: true, Satellites: e.sc.walkerSats, Stations: e.sc.walkerStations, Seed: populationSeed}
	tles, net := dgs.Population(opt)
	props, err := propagators(tles)
	if err != nil {
		return nil, err
	}
	in := planInputFor(props, net, nil, time.Hour)
	// Seeded queue state: 0.5 to 1.5 hours of backlog per satellite.
	rng := rand.New(rand.NewSource(e.seed))
	for i := range in.snaps {
		f := 0.5 + rng.Float64()
		in.snaps[i].PendingBits *= f
		in.snaps[i].OldestAge = time.Duration(f * float64(time.Hour))
	}
	return &walkerSetup{in: in, sched: &core.Scheduler{Radio: linkbudget.DefaultRadio(), Stations: net}}, nil
}

// walkerEpochsPerSecond is the reference host's rate in 1-h epochs per
// second (4.2 s per epoch): 5 epochs at --seconds 20.
const walkerEpochsPerSecond = 0.25

// walkerPhase is what consecutive hourly epochs on one Scheduler saw:
// each epoch's unstolen and wall seconds, megabytes allocated and links
// assigned.
type walkerPhase struct {
	epochs, wallTime, allocMB []float64
	assigned                  []int
}

// runWalkerPhase plans the given number of consecutive hourly epochs;
// every plan passes the booking gate.
func runWalkerPhase(w *walkerSetup, epochs int, tr *tracer, parent int, o *outcome) *walkerPhase {
	ph := &walkerPhase{}
	for len(ph.epochs) < epochs {
		start := w.in.start.Add(time.Duration(len(ph.epochs)) * w.in.horizon)
		id := tr.begin("core.Scheduler.PlanEpoch", parent)
		a0, ticks := allocatedMB(), readTicks()
		t0 := time.Now()
		plan := w.sched.PlanEpoch(w.in.snaps, start, w.in.horizon, w.in.slot, w.in.genRate)
		d := time.Since(t0).Seconds()
		f := unstolen(ticks)
		ph.allocMB = append(ph.allocMB, allocatedMB()-a0)
		n := assignedCount(plan)
		tr.end(id, map[string]float64{"assigned": float64(n)})
		o.check(fmt.Sprintf("epoch-%d-bookings", len(ph.epochs)), checkPlan(plan, w.in.net))
		ph.epochs = append(ph.epochs, d*f)
		ph.wallTime = append(ph.wallTime, d)
		ph.assigned = append(ph.assigned, n)
	}
	return ph
}

// walkerPlan is the ROADMAP's mega-scale planning instance: a 2,000
// satellite Walker shell against 500 stations, consecutive 1-h epochs of
// 1-min slots on one Scheduler, no forecast.
func walkerPlan(e *env) (*outcome, error) {
	o := &outcome{}
	base := liveHeapMB()
	var timed *walkerSetup
	setup, err := setupReps(func(rep int) error {
		w, err := newWalker(e)
		if rep == 0 {
			timed = w
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	slots := float64(timed.in.horizon / timed.in.slot)
	epochs := opsFor(e.seconds, walkerEpochsPerSecond, 2)
	untraced := beginPhase(e.tr, spanUntraced)
	ph := runWalkerPhase(timed, epochs, nil, 0, o)
	e.tr.end(untraced, map[string]float64{"ops": float64(len(ph.epochs))})
	o.attempted += len(ph.epochs)
	retained := liveHeapMB() - base
	runtime.KeepAlive(timed)
	timed = nil

	// Repetition: a fresh Scheduler must assign the same count in the first
	// epoch.
	verify, err := newWalker(e)
	if err != nil {
		return nil, err
	}
	rep := runWalkerPhase(verify, 1, nil, 0, o)
	o.check("repetition-assigned", sameCount(ph.assigned[0], rep.assigned[0]))
	o.notes = append(o.notes, fmt.Sprintf("assigned per epoch: %v", ph.assigned))

	// The first epoch on a Scheduler fills its reusable scratch; the warm
	// epochs after it are the steady state a long-running planner sees,
	// and the metrics are theirs.
	med := median(ph.epochs[1:])
	o.e2e = map[string]float64{
		"setup_s":          median(setup),
		"throughput_per_s": slots / med,
		"op_p50_ms":        ms(med),
		"replan_ms":        ms(med),
		"alloc_mb_per_op":  median(ph.allocMB[1:]),
		"heap_retained_mb": retained,
	}
	o.issue = append(o.issue, issueMetric{"plan_epoch_s", "s", med})
	o.notes = append(o.notes, fmt.Sprintf("timed: cold epoch %.4g ms, %.4g MB allocated; warm epoch %s (wall p50 %.4g ms), median %.4g MB allocated; %d set-ups",
		ms(ph.epochs[0]), ph.allocMB[0], timingSummary(ph.epochs[1:]), ms(median(ph.wallTime[1:])), median(ph.allocMB[1:]), len(setup)))

	if e.tr == nil {
		return o, nil
	}
	w, err := newWalker(e)
	if err != nil {
		return nil, err
	}
	root := beginPhase(e.tr, spanTraced)
	tph := runWalkerPhase(w, len(ph.epochs), e.tr, root, o)
	e.tr.end(root, map[string]float64{"ops": float64(len(tph.epochs))})
	o.attempted += len(tph.epochs)
	for i := range tph.assigned {
		o.check(fmt.Sprintf("traced-epoch-%d-assigned", i), sameCount(ph.assigned[i], tph.assigned[i]))
	}
	return o, probeLayers(e.tr, w.in, o)
}

// sameCount fails when two repetitions assigned different numbers of links.
func sameCount(a, b int) error {
	if a != b {
		return fmt.Errorf("assigned %d links, repetition assigned %d", a, b)
	}
	return nil
}
