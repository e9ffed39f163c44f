package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"dgs/internal/core"
	"dgs/internal/sim"
	"dgs/internal/station"
)

// checkPlan fails when a slot books one satellite twice or gives a station
// more links than its Capacity.
func checkPlan(p *core.Plan, net station.Network) error {
	for k, sl := range p.Slots {
		sats := map[int]bool{}
		load := map[int]int{}
		for _, a := range sl.Assignments {
			if sats[a.Sat] {
				return fmt.Errorf("slot %d books satellite %d twice", k, a.Sat)
			}
			sats[a.Sat] = true
			if a.Station < 0 || a.Station >= len(net) {
				return fmt.Errorf("slot %d assigns unknown station %d", k, a.Station)
			}
			load[a.Station]++
			if c := net[a.Station].Capacity(); load[a.Station] > c {
				return fmt.Errorf("slot %d gives station %d %d links, capacity %d", k, a.Station, load[a.Station], c)
			}
		}
	}
	return nil
}

// assignedCount is the number of assignments in a plan.
func assignedCount(p *core.Plan) int {
	n := 0
	for _, sl := range p.Slots {
		n += len(sl.Assignments)
	}
	return n
}

// resultDigest hashes a simulation Result through its lossless JSON form.
// Taken after Finalize, that covers the delivered and generated volume
// bits, peak storage, every latency sample and the slot counters. Backlog
// samples are added only when a simulated day closes, so a run shorter
// than a day digests an empty backlog summary.
func resultDigest(r *sim.Result) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("digest result: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// sameDigest fails when two repetitions of one simulation disagree.
func sameDigest(a, b string) error {
	if a != b {
		return fmt.Errorf("result digest %s differs from repetition %s", a, b)
	}
	return nil
}

// responseGate checks served responses as they arrive: the status is 200
// or 304, bodies for one key within one epoch are byte-identical, and no
// client sees the world epoch go backwards.
type responseGate struct {
	mu        sync.Mutex
	bodies    map[string][32]byte
	lastEpoch map[int]uint64
}

func newResponseGate() *responseGate {
	return &responseGate{bodies: map[string][32]byte{}, lastEpoch: map[int]uint64{}}
}

// observe checks one response of client for key (empty for requests that
// are not idempotent reads); sum is the SHA-256 of its body.
func (g *responseGate) observe(client, status int, epoch uint64, key string, sum [32]byte) error {
	if status != http.StatusOK && status != http.StatusNotModified {
		return fmt.Errorf("status %d for %q", status, key)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if last := g.lastEpoch[client]; epoch < last {
		return fmt.Errorf("client %d saw epoch %d after %d", client, epoch, last)
	}
	g.lastEpoch[client] = epoch
	if key == "" || status != http.StatusOK {
		return nil
	}
	k := fmt.Sprintf("%d|%s", epoch, key)
	if prev, ok := g.bodies[k]; ok && prev != sum {
		return fmt.Errorf("epoch %d: body for %q changed between responses", epoch, key)
	}
	g.bodies[k] = sum
	return nil
}
