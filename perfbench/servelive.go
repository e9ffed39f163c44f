package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dgs"
	"dgs/internal/serve"
)

// Request mix of serve-live. No trace of this API's traffic exists, so
// the mix follows tools/loadgen's documented one where the two overlap
// (plan share, pass-window lengths, filter mix) and states the rest as
// assumptions; perfbench/README.md gives the reason for each.
const (
	serveClients = 2 // closed-loop clients, one per CPU of the reference host
	// servePlanEvery: every tenth request reads the live plan, loadgen's
	// 10% plan share.
	servePlanEvery = 10
	// serveKeys is the pass-query key space: four times the server's
	// default 1,024-entry response cache (assumption).
	serveKeys = 4096
	// serveZipfS is the popularity exponent over the keys (assumption).
	serveZipfS = 1.7
	// serveRankSeed fixes the popularity ranks and the cost of the query
	// at each rank; --seed picks the satellites and stations.
	serveRankSeed = 20201104
	// serveRequestsPerSecond is the reference host's request rate.
	serveRequestsPerSecond = 20
	serveApplyProbes       = 5
	serveMissProbes        = 20
)

// request is one entry of the replayed sequence.
type request struct {
	method, route, query string
	body                 []byte
	// key identifies an idempotent read for the body-identity gate.
	key string
	// sat, station (-1 when not filtered), from and to are set for pass
	// queries.
	sat, station int
	from, to     time.Time
}

// passKeys draws the pass-query key of every popularity rank. As in
// loadgen, a query covers 1, 2 or 3 whole hours starting anywhere in the
// world's span, and is filtered by satellite, by station or not at all,
// each a third of the time. Start times fall on whole hours so that keys
// repeat. The rank fixes the window length, the filter kind and the start
// hour; the seed draws which satellite or station a filtered query names.
// A miss scans every pair of its window whatever the filter, so every
// seed asks queries of the same cost at the same ranks.
func passKeys(seed int64, sats, stations int, span time.Duration) []request {
	shape := rand.New(rand.NewSource(serveRankSeed + 1))
	pick := rand.New(rand.NewSource(seed))
	keys := make([]request, serveKeys)
	for r := range keys {
		hours := 1 + r%3
		from := dgs.Start.Add(time.Duration(shape.Intn(int(span.Hours())-hours+1)) * time.Hour)
		rq := request{method: http.MethodGet, route: "/v2/passes", sat: -1, station: -1,
			from: from, to: from.Add(time.Duration(hours) * time.Hour)}
		rq.query = fmt.Sprintf("hours=%d&from=%s", hours, from.Format(time.RFC3339))
		switch (r / 3) % 3 {
		case 0:
			rq.sat = pick.Intn(sats)
			rq.query += fmt.Sprintf("&sat=%d", rq.sat)
		case 1:
			rq.station = pick.Intn(stations)
			rq.query += fmt.Sprintf("&station=%d", rq.station)
		}
		rq.key = "/v2/passes?" + rq.query
		keys[r] = rq
	}
	return keys
}

// serveSequence builds n requests. Every updateEvery-th is a weather
// revision drawn from the seed, every tenth a live-plan read, the rest
// pass queries whose popularity ranks come from a fixed generator, so
// where hits and misses fall is the same for every seed.
func serveSequence(seed int64, sats, stations int, span time.Duration, updateEvery, n int) []request {
	keys := passKeys(seed, sats, stations, span)
	zipf := rand.NewZipf(rand.New(rand.NewSource(serveRankSeed)), serveZipfS, 1, uint64(len(keys)-1))
	seq := make([]request, n)
	for i := range seq {
		switch {
		case i%updateEvery == updateEvery-1:
			body := fmt.Sprintf(`{"weather":{"seed":%d,"err_fraction":0.3}}`, uint64(seed)*1_000_003+uint64(i))
			seq[i] = request{method: http.MethodPost, route: "/v2/updates", body: []byte(body)}
		case i%servePlanEvery == servePlanEvery/2:
			seq[i] = request{method: http.MethodGet, route: "/v2/plan", key: "/v2/plan"}
		default:
			seq[i] = keys[zipf.Uint64()]
		}
	}
	return seq
}

// serveWorld is the set-up of serve-live: a paper-scale snapshot behind the
// v2 API on a loopback listener in this process.
type serveWorld struct {
	snap *serve.Snapshot
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan struct{}
}

// The world runs one worker per request: the two clients already keep
// both CPUs busy, and a miss's pass scan fanned out over both would
// preempt the other client's cache hits, which made the median latency
// swing by a third between runs of one seed.
func newServeWorld(e *env) (*serveWorld, error) {
	snap, err := serve.NewSnapshot(serve.SnapshotConfig{Seed: populationSeed, Satellites: e.sc.paperSats, Stations: e.sc.paperStations, Workers: 1})
	if err != nil {
		return nil, err
	}
	srv := serve.New(snap, serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Source().Close()
		return nil, err
	}
	w := &serveWorld{
		snap: snap,
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(w.done)
		// Serve returns http.ErrServerClosed once close runs; any other
		// failure shows up as failed requests.
		_ = w.hs.Serve(ln)
	}()
	return w, nil
}

// close stops the listener and its connections, waits for the serving
// goroutine, and closes the store.
func (w *serveWorld) close() {
	w.hs.Close()
	<-w.done
	w.srv.Source().Close()
}

// servePhase is what the clients saw in one phase.
type servePhase struct {
	completed int
	// elapsed is the phase in unstolen seconds, wall in wall seconds.
	elapsed, wall float64
	lat           []float64 // every request, unstolen seconds
	swaps         []float64 // POST /v2/updates round trips, unstolen seconds
	failed        int
	errs          []error
	before        [3]serve.EndpointStats
	after         [3]serve.EndpointStats
}

var statEndpoints = [3]string{"passes", "plan", "updates"}

// runServePhase replays the first n requests of seq with serveClients
// closed-loop clients. Each client takes the next sequence index when its
// previous request completes, so updates land at fixed positions.
// Phases that share gate must number their clients apart (firstClient):
// each world starts again at epoch 1, and a body must match across worlds.
func runServePhase(w *serveWorld, seq []request, n int, tr *tracer, parent int, gate *responseGate, firstClient int) *servePhase {
	ph := &servePhase{}
	for i, ep := range statEndpoints {
		ph.before[i] = w.srv.Stats(ep)
	}
	transport := &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: time.Minute}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	t0, ticks := time.Now(), readTicks()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				rq := seq[i]
				id := tr.begin(spanHTTP+rq.method+" "+rq.route, parent)
				start := time.Now()
				status, epoch, sum, size, err := do(client, w.base, rq, buf)
				d := time.Since(start).Seconds()
				tr.end(id, map[string]float64{"bytes": float64(size), "status": float64(status)})
				if err == nil {
					err = gate.observe(firstClient+c, status, epoch, rq.key, sum)
				}
				mu.Lock()
				ph.completed++
				ph.lat = append(ph.lat, d)
				if rq.method == http.MethodPost {
					ph.swaps = append(ph.swaps, d)
				}
				if err != nil {
					ph.failed++
					if len(ph.errs) < 5 {
						ph.errs = append(ph.errs, fmt.Errorf("request %d: %w", i, err))
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(t0).Seconds()
	// The clients keep both CPUs busy, so the phase's stolen share is each
	// request's too.
	f := unstolen(ticks)
	ph.elapsed = ph.wall * f
	for i := range ph.lat {
		ph.lat[i] *= f
	}
	for i := range ph.swaps {
		ph.swaps[i] *= f
	}
	for i, ep := range statEndpoints {
		ph.after[i] = w.srv.Stats(ep)
	}
	return ph
}

// do sends one request and streams the body through SHA-256, so the
// client keeps no body and allocates little beside the server. buf is the
// calling client's copy buffer.
func do(client *http.Client, base string, rq request, buf []byte) (status int, epoch uint64, sum [32]byte, size int64, err error) {
	url := base + rq.route
	if rq.query != "" {
		url += "?" + rq.query
	}
	req, err := http.NewRequestWithContext(context.Background(), rq.method, url, bytes.NewReader(rq.body))
	if err != nil {
		return 0, 0, sum, 0, err
	}
	if rq.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, sum, 0, err
	}
	defer resp.Body.Close()
	h := sha256.New()
	size, err = io.CopyBuffer(h, resp.Body, buf)
	if err != nil {
		return resp.StatusCode, 0, sum, size, err
	}
	h.Sum(sum[:0])
	epoch, err = strconv.ParseUint(resp.Header.Get("X-World-Epoch"), 10, 64)
	if err != nil {
		return resp.StatusCode, 0, sum, size, fmt.Errorf("X-World-Epoch header: %w", err)
	}
	return resp.StatusCode, epoch, sum, size, nil
}

// serveLive serves the paper-scale world over loopback HTTP to two
// closed-loop clients replaying the seeded /v2 mix, with weather revisions
// swapping the world's epoch beside the reads.
func serveLive(e *env) (*outcome, error) {
	o := &outcome{}
	base := liveHeapMB()
	var built []*serveWorld
	setup, err := setupReps(func(rep int) error {
		w, err := newServeWorld(e)
		if err == nil {
			built = append(built, w)
		}
		return err
	})
	for i := 0; i+1 < len(built); i++ {
		built[i].close()
	}
	if err != nil {
		if len(built) > 0 {
			built[len(built)-1].close()
		}
		return nil, err
	}
	timedWorld := built[len(built)-1]
	built = nil
	// The world's footprint is read before it serves: after the phase, the
	// shared position cache holds whichever hours the two clients' scans
	// filled first, and the live heap read 84.5 or 91.6 MB from run to
	// run.
	retained := liveHeapMB() - base
	every := e.sc.serveUpdateEvery
	n := opsFor(e.seconds, serveRequestsPerSecond, 2*every)
	span := timedWorld.snap.Config().MaxSpan
	seq := serveSequence(e.seed, e.sc.paperSats, e.sc.paperStations, span, every, n)

	gate := newResponseGate()
	untraced := beginPhase(e.tr, spanUntraced)
	alloc0 := allocatedMB()
	ph := runServePhase(timedWorld, seq, n, nil, 0, gate, 0)
	allocMB := allocatedMB() - alloc0
	e.tr.end(untraced, map[string]float64{"ops": float64(ph.completed)})
	timedWorld.close()
	timedWorld = nil
	o.addServePhase("requests", ph)

	// Repetition: a second world from identical inputs serves the same
	// bytes for every key and epoch over the first two update periods.
	rw, err := newServeWorld(e)
	if err != nil {
		return nil, err
	}
	rph := runServePhase(rw, seq, 2*every, nil, 0, gate, serveClients)
	rw.close()
	o.addServePhase("repetition-requests", rph)

	p50 := median(ph.lat)
	p99 := percentile(ph.lat, 99)
	rps := float64(ph.completed) / ph.elapsed
	swap := median(ph.swaps)
	o.e2e = map[string]float64{
		"setup_s":          median(setup),
		"throughput_per_s": rps,
		"op_p50_ms":        ms(p50),
		"replan_ms":        ms(swap),
		"alloc_mb_per_op":  allocMB / float64(ph.completed),
		"heap_retained_mb": retained,
	}
	hits := ph.after[0].Hits - ph.before[0].Hits
	looked := hits + ph.after[0].Misses - ph.before[0].Misses
	o.issue = append(o.issue,
		issueMetric{"serve_rps", "req/s", rps},
		issueMetric{"serve_p50_ms", "ms", ms(p50)},
		issueMetric{"serve_p99_ms", "ms", ms(p99)},
		issueMetric{"swap_ms", "ms", ms(swap)})
	o.notes = append(o.notes, fmt.Sprintf("timed: %d requests (%d updates) in %.2f s (%.2f s wall); passes hit share %.3f; request %s; update %s; %d set-ups",
		ph.completed, len(ph.swaps), ph.elapsed, ph.wall, float64(hits)/float64(max(looked, 1)),
		timingSummary(ph.lat), timingSummary(ph.swaps), len(setup)))

	if e.tr == nil {
		return o, nil
	}

	w, err := newServeWorld(e)
	if err != nil {
		return nil, err
	}
	defer w.close()
	root := beginPhase(e.tr, spanTraced)
	tph := runServePhase(w, seq, n, e.tr, root, gate, 2*serveClients)
	e.tr.end(root, map[string]float64{"ops": float64(tph.completed)})
	o.addServePhase("traced-requests", tph)
	d := func(i int, f func(serve.EndpointStats) int64) float64 {
		return float64(f(tph.after[i]) - f(tph.before[i]))
	}
	rejected := 0.0
	for i := range statEndpoints {
		rejected += d(i, func(s serve.EndpointStats) int64 { return s.Rejected })
	}
	id := e.tr.begin(spanStats, root)
	e.tr.end(id, map[string]float64{
		"passes_hits":   d(0, func(s serve.EndpointStats) int64 { return s.Hits }),
		"passes_misses": d(0, func(s serve.EndpointStats) int64 { return s.Misses }),
		"passes_dedups": d(0, func(s serve.EndpointStats) int64 { return s.Dedups }),
		"rejected":      rejected,
	})

	if err := probeServeLayers(e, w, seq); err != nil {
		return nil, err
	}
	// The served world's forecast is the population seed's weather.
	in, err := paperPlanInput(e, uint64(populationSeed)+7, time.Hour)
	if err != nil {
		return nil, err
	}
	return o, probeLayers(e.tr, in, o)
}

func (o *outcome) addServePhase(name string, ph *servePhase) {
	o.attempted += ph.completed
	o.failed += ph.failed
	var err error
	if ph.failed > 0 {
		err = fmt.Errorf("%d of %d requests failed, first: %v", ph.failed, ph.completed, ph.errs)
	}
	o.gates = append(o.gates, gate{name, err})
}

// probeServeLayers times the served world's own calls directly: pass
// scans for the run's first distinct pass keys (each a cache miss when
// first served), and weather revisions applied to the store.
func probeServeLayers(e *env, w *serveWorld, served []request) error {
	root := e.tr.begin(spanProbes, 0)
	defer e.tr.end(root, nil)
	world, ok := w.srv.Store().Acquire()
	if !ok {
		return fmt.Errorf("serve probe: no world published")
	}
	seen := map[string]bool{}
	for _, rq := range served {
		if rq.route != "/v2/passes" || seen[rq.key] {
			continue
		}
		seen[rq.key] = true
		id := e.tr.begin(spanMissPasses, root)
		ws := world.Snap.Passes(rq.from, rq.to, rq.sat, rq.station)
		e.tr.end(id, map[string]float64{"windows": float64(len(ws))})
		if len(seen) == serveMissProbes {
			break
		}
	}
	world.Release()

	for k := 0; k < serveApplyProbes; k++ {
		u := serve.Update{Weather: &serve.WeatherUpdate{Seed: uint64(e.seed)*7919 + uint64(k), ErrFraction: 0.3}}
		id := e.tr.begin(spanApply, root)
		res, err := w.srv.Store().Apply(u)
		incr := 0.0
		if res.Incremental {
			incr = 1
		}
		e.tr.end(id, map[string]float64{"changed_slots": float64(res.ChangedSlots), "incremental": incr})
		if err != nil {
			return fmt.Errorf("serve probe: apply: %w", err)
		}
	}
	return nil
}
