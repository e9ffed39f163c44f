package backend

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"slices"
	"sync"
	"time"

	"dgs/internal/proto"
)

// Default agent-side session timings.
const (
	// DefaultHeartbeatEvery is the idle keepalive interval.
	DefaultHeartbeatEvery = 15 * time.Second
	// DefaultDialTimeout bounds one TCP connect attempt.
	DefaultDialTimeout = 10 * time.Second
)

// ErrAgentClosed is returned by operations on an agent after Close.
var ErrAgentClosed = errors.New("backend: agent closed")

// StationAgent is the station-side client: it reports received chunks,
// receives schedule broadcasts, and (for TX stations) fetches ack digests.
//
// Two connection modes exist:
//
//   - Dial establishes a single session; any connection failure surfaces
//     as an error from the next call (the pre-fault-tolerance behavior,
//     still used by tests and one-shot tools).
//   - Connect establishes a managed session: the agent redials with
//     exponential backoff plus jitter whenever the connection fails, then
//     resumes — it learns the backend's last collated report sequence
//     number and replays only lost reports. Report on a managed agent
//     therefore blocks until the report is durably collated (or the
//     context ends), and is safe to retry across any number of resets:
//     sequence numbers make re-collation impossible.
//
// Requests on one agent are serialized; run one agent per station.
type StationAgent struct {
	// ID and Name identify the station.
	ID   uint32
	Name string
	// TxCapable enables digest fetching.
	TxCapable bool
	// OnSchedule, when set, is invoked for every schedule broadcast.
	OnSchedule func(*proto.Schedule)
	// HeartbeatEvery is the keepalive interval (default 15 s); the read
	// deadline is three heartbeat intervals.
	HeartbeatEvery time.Duration
	// WriteTimeout bounds one frame write (default DefaultWriteTimeout).
	WriteTimeout time.Duration
	// DialTimeout bounds one connect attempt (default DefaultDialTimeout).
	DialTimeout time.Duration
	// Backoff paces managed reconnects (zero value = defaults).
	Backoff Backoff
	// Logf, when set, receives diagnostics (falls back to log.Printf for
	// unsolicited frames, matching the old behavior).
	Logf func(format string, args ...any)

	// reqMu serializes requests and (re)connects.
	reqMu sync.Mutex

	mu      sync.Mutex
	sess    *session
	nextSeq uint64
	addr    string
	managed bool
	ctx     context.Context // bounds the managed session (set by Connect)
	closed  bool
	closeCh chan struct{}
	rng     *rand.Rand // jitter source; guarded by reqMu
}

// session is one live connection's state.
type session struct {
	a    *StationAgent
	conn net.Conn

	readTimeout  time.Duration
	writeTimeout time.Duration

	wmu sync.Mutex

	mu      sync.Mutex
	pending []chan proto.Message
	readErr error
	dead    bool

	done    chan struct{} // closed when readLoop exits
	hbStop  chan struct{}
	lastSeq uint64 // backend's collated seq at resume time
}

func (a *StationAgent) heartbeatEvery() time.Duration {
	if a.HeartbeatEvery > 0 {
		return a.HeartbeatEvery
	}
	return DefaultHeartbeatEvery
}

func (a *StationAgent) writeTimeout() time.Duration {
	if a.WriteTimeout > 0 {
		return a.WriteTimeout
	}
	return DefaultWriteTimeout
}

func (a *StationAgent) dialTimeout() time.Duration {
	if a.DialTimeout > 0 {
		return a.DialTimeout
	}
	return DefaultDialTimeout
}

func (a *StationAgent) logf(format string, args ...any) {
	if a.Logf != nil {
		a.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

func (a *StationAgent) init() {
	a.mu.Lock()
	if a.closeCh == nil {
		a.closeCh = make(chan struct{})
	}
	if a.rng == nil {
		a.rng = rand.New(rand.NewSource(int64(a.ID)*7919 + 1))
	}
	a.mu.Unlock()
}

// Dial connects once and performs the handshake. The session carries
// deadlines and heartbeats but is not redialed on failure — subsequent
// calls return the connection error.
func (a *StationAgent) Dial(ctx context.Context, addr string) error {
	a.init()
	a.reqMu.Lock()
	defer a.reqMu.Unlock()
	a.mu.Lock()
	a.addr = addr
	a.managed = false
	a.mu.Unlock()
	sess, err := a.dialSession(ctx)
	if err != nil {
		return err
	}
	a.mu.Lock()
	a.sess = sess
	a.mu.Unlock()
	return nil
}

// Connect establishes a managed session: it keeps dialing under the
// backoff policy until the handshake succeeds or ctx ends, and the session
// transparently reconnects and resumes after any later failure. ctx bounds
// the whole managed session, not just this call.
func (a *StationAgent) Connect(ctx context.Context, addr string) error {
	a.init()
	a.reqMu.Lock()
	defer a.reqMu.Unlock()
	a.mu.Lock()
	a.addr = addr
	a.managed = true
	a.ctx = ctx
	a.mu.Unlock()
	_, err := a.ensureSession()
	return err
}

// dialSession performs one connect + handshake + resume. Callers hold
// reqMu.
func (a *StationAgent) dialSession(ctx context.Context) (*session, error) {
	a.mu.Lock()
	addr := a.addr
	a.mu.Unlock()
	d := net.Dialer{Timeout: a.dialTimeout()}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	hb := a.heartbeatEvery()
	s := &session{
		a:            a,
		conn:         conn,
		readTimeout:  3 * hb,
		writeTimeout: a.writeTimeout(),
		done:         make(chan struct{}),
		hbStop:       make(chan struct{}),
	}
	go s.readLoop()
	resp, err := s.roundTrip(&proto.Hello{Version: proto.Version, StationID: a.ID, TxCapable: a.TxCapable, Name: a.Name})
	if err != nil {
		s.fail(err)
		return nil, err
	}
	switch m := resp.(type) {
	case *proto.OK:
	case *proto.Error:
		s.fail(m)
		return nil, m // errors.Is(·, proto.ErrVersion) when CodeVersion
	default:
		err := fmt.Errorf("backend: unexpected handshake response type %d", resp.Type())
		s.fail(err)
		return nil, err
	}
	// Resume: learn what the backend already collated from us so replays
	// can be trimmed and sequence numbers survive agent restarts.
	resp, err = s.roundTrip(&proto.Resume{StationID: a.ID})
	if err != nil {
		s.fail(err)
		return nil, err
	}
	rs, ok := resp.(*proto.Resume)
	if !ok {
		err := fmt.Errorf("backend: unexpected resume response type %d", resp.Type())
		s.fail(err)
		return nil, err
	}
	s.lastSeq = rs.LastSeq
	a.mu.Lock()
	if rs.LastSeq > a.nextSeq {
		// A restarted agent process adopts the backend's sequence state.
		a.nextSeq = rs.LastSeq
	}
	a.mu.Unlock()
	go s.heartbeats(hb)
	return s, nil
}

// ensureSession returns a live session, redialing with backoff in managed
// mode. Callers hold reqMu.
func (a *StationAgent) ensureSession() (*session, error) {
	a.mu.Lock()
	sess, managed, ctx, closed, closeCh := a.sess, a.managed, a.ctx, a.closed, a.closeCh
	a.mu.Unlock()
	if closed {
		return nil, ErrAgentClosed
	}
	if sess != nil && sess.alive() {
		return sess, nil
	}
	if !managed {
		if sess == nil {
			return nil, errors.New("backend: not connected")
		}
		return nil, sess.err()
	}
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ns, err := a.dialSession(ctx)
		if err == nil {
			a.mu.Lock()
			if a.closed {
				a.mu.Unlock()
				ns.fail(ErrAgentClosed)
				return nil, ErrAgentClosed
			}
			a.sess = ns
			a.mu.Unlock()
			return ns, nil
		}
		if errors.Is(err, proto.ErrVersion) {
			return nil, err // permanent: retrying cannot help
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-closeCh:
			return nil, ErrAgentClosed
		case <-time.After(a.Backoff.Delay(attempt, a.rng)):
		}
	}
}

// reconnect re-establishes a managed session in the background after a
// failure, so schedule broadcasts resume without waiting for the next RPC.
func (a *StationAgent) reconnect() {
	a.reqMu.Lock()
	defer a.reqMu.Unlock()
	if _, err := a.ensureSession(); err != nil && !errors.Is(err, ErrAgentClosed) && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		a.logf("station %d: reconnect: %v", a.ID, err)
	}
}

// rpc performs one request/response exchange, retrying across reconnects
// in managed mode. seq, when nonzero, is the request's report sequence
// number: after a reconnect the resume state may show it already collated,
// in which case the lost OK is synthesized instead of re-sending.
func (a *StationAgent) rpc(m proto.Message, seq uint64) (proto.Message, error) {
	for {
		sess, err := a.ensureSession()
		if err != nil {
			return nil, err
		}
		if seq != 0 && sess.lastSeq >= seq {
			return &proto.OK{}, nil // collated before the previous session died
		}
		resp, err := sess.roundTrip(m)
		if err == nil {
			return resp, nil
		}
		sess.fail(err)
		a.mu.Lock()
		managed, closed := a.managed, a.closed
		if a.sess == sess {
			a.sess = nil
		}
		a.mu.Unlock()
		if !managed || closed {
			return nil, err
		}
		// Managed: loop; ensureSession redials with backoff and the next
		// iteration replays or short-circuits via the resume state.
	}
}

// Report sends chunk receipts and waits until the backend has collated
// them. The agent assigns r.Seq when zero; in managed mode delivery
// survives arbitrary connection failures (at-least-once on the wire,
// exactly-once in the collator).
func (a *StationAgent) Report(r *proto.ChunkReport) error {
	if len(r.Chunks) == 0 {
		return errors.New("backend: empty report (use FetchDigest)")
	}
	a.reqMu.Lock()
	defer a.reqMu.Unlock()
	if r.Seq == 0 {
		a.mu.Lock()
		a.nextSeq++
		r.Seq = a.nextSeq
		a.mu.Unlock()
	}
	resp, err := a.rpc(r, r.Seq)
	if err != nil {
		return err
	}
	switch m := resp.(type) {
	case *proto.OK:
		return nil
	case *proto.Error:
		return m
	default:
		return fmt.Errorf("backend: unexpected response type %d", resp.Type())
	}
}

// FetchDigest retrieves (and consumes) the cumulative ack digest for a
// satellite. Only TX-capable stations may call it. Unlike Report, a digest
// lost to a connection failure mid-reply is not replayed (the poll itself
// is retried, but acks consumed by a reply the station never saw surface
// again only through the satellite's nack timeout).
func (a *StationAgent) FetchDigest(sat uint32) (*proto.AckDigest, error) {
	a.reqMu.Lock()
	defer a.reqMu.Unlock()
	resp, err := a.rpc(&proto.ChunkReport{StationID: a.ID, Sat: sat}, 0)
	if err != nil {
		return nil, err
	}
	switch m := resp.(type) {
	case *proto.AckDigest:
		return m, nil
	case *proto.Error:
		return nil, m
	default:
		return nil, fmt.Errorf("backend: unexpected response type %d", resp.Type())
	}
}

// Close tears down the agent and any live session.
func (a *StationAgent) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	if a.closeCh != nil {
		close(a.closeCh)
	}
	sess := a.sess
	a.sess = nil
	a.mu.Unlock()
	if sess == nil {
		return nil
	}
	sess.fail(ErrAgentClosed)
	<-sess.done
	return nil
}

// ---- session internals ----

// write sends one frame under the write lock and deadline.
func (s *session) write(m proto.Message) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
	return proto.Write(s.conn, m)
}

func (s *session) alive() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.dead
}

func (s *session) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readErr != nil {
		return s.readErr
	}
	return errors.New("backend: connection closed")
}

// fail marks the session dead exactly once: the connection closes, every
// pending waiter unblocks, heartbeats stop, and — when this was the
// agent's current managed session — a background reconnect starts.
func (s *session) fail(err error) {
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return
	}
	s.dead = true
	if s.readErr == nil {
		s.readErr = err
	}
	pending := s.pending
	s.pending = nil
	s.mu.Unlock()

	close(s.hbStop)
	s.conn.Close()
	for _, ch := range pending {
		close(ch)
	}

	a := s.a
	a.mu.Lock()
	wasCurrent := a.sess == s
	if wasCurrent {
		a.sess = nil
	}
	shouldReconnect := wasCurrent && a.managed && !a.closed
	a.mu.Unlock()
	if shouldReconnect {
		go a.reconnect()
	}
}

// readLoop dispatches schedule broadcasts to OnSchedule, heartbeat pongs
// to the void, and everything else to the oldest waiting request.
func (s *session) readLoop() {
	defer close(s.done)
	for {
		s.conn.SetReadDeadline(time.Now().Add(s.readTimeout))
		msg, err := proto.Read(s.conn)
		if err != nil {
			s.fail(err)
			return
		}
		switch m := msg.(type) {
		case *proto.Schedule:
			if s.a.OnSchedule != nil {
				s.a.OnSchedule(m)
			}
			continue
		case *proto.Heartbeat:
			if !m.Ack {
				// Server-initiated ping: echo it.
				if err := s.write(&proto.Heartbeat{Seq: m.Seq, Ack: true}); err != nil {
					s.fail(err)
					return
				}
			}
			continue
		}
		s.mu.Lock()
		if len(s.pending) > 0 {
			ch := s.pending[0]
			s.pending = s.pending[1:]
			s.mu.Unlock()
			ch <- msg
			continue
		}
		s.mu.Unlock()
		s.a.logf("station %d: unsolicited message type %d", s.a.ID, msg.Type())
	}
}

// heartbeats pings the backend while the session is idle so both ends stay
// inside their read deadlines.
func (s *session) heartbeats(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	var seq uint64
	for {
		select {
		case <-s.hbStop:
			return
		case <-s.done:
			return
		case <-t.C:
			seq++
			if err := s.write(&proto.Heartbeat{Seq: seq}); err != nil {
				s.fail(err)
				return
			}
		}
	}
}

// roundTrip sends a request and blocks for the next non-broadcast frame.
// The response slot is registered before the request is written, so a
// reply that arrives before the write returns still finds it. Requests
// are serialized by the agent's reqMu, so slots queue in request order.
func (s *session) roundTrip(m proto.Message) (proto.Message, error) {
	ch := make(chan proto.Message, 1)
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return nil, s.err()
	}
	s.pending = append(s.pending, ch)
	s.mu.Unlock()
	if err := s.write(m); err != nil {
		s.mu.Lock()
		if k := slices.Index(s.pending, ch); k >= 0 {
			s.pending = slices.Delete(s.pending, k, k+1)
		}
		s.mu.Unlock()
		return nil, err
	}
	msg, ok := <-ch
	if !ok {
		return nil, s.err()
	}
	return msg, nil
}
