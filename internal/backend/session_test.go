package backend

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"dgs/internal/proto"
)

func TestBackoffDelayGrowthAndCap(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := b.Delay(i, nil); got != w*time.Millisecond {
			t.Fatalf("delay(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
}

func TestBackoffJitterBounded(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Minute, Factor: 2, Jitter: 0.2}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		d := b.Delay(0, rng)
		if d < 80*time.Millisecond || d > 120*time.Millisecond {
			t.Fatalf("jittered delay %v outside ±20%% of 100ms", d)
		}
	}
	// Nil rng: deterministic, no jitter.
	if d := b.Delay(0, nil); d != 100*time.Millisecond {
		t.Fatalf("nil-rng delay = %v", d)
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := proto.Write(conn, &proto.Hello{Version: proto.Version + 1, StationID: 1, Name: "old"}); err != nil {
		t.Fatal(err)
	}
	msg, err := proto.Read(conn)
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	e, ok := msg.(*proto.Error)
	if !ok {
		t.Fatalf("expected error frame, got type %d", msg.Type())
	}
	if !errors.Is(e, proto.ErrVersion) {
		t.Fatalf("error %v does not match proto.ErrVersion", e)
	}
}

func TestHeartbeatKeepsIdleSessionAlive(t *testing.T) {
	// Server read deadline far shorter than the test; agent heartbeats keep
	// the otherwise-idle session open.
	srv := NewServer(nil)
	srv.ReadTimeout = 200 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	a := &StationAgent{ID: 3, Name: "hb", HeartbeatEvery: 50 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Dial(ctx, addr.String()); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	time.Sleep(600 * time.Millisecond) // 3× the server deadline, all idle
	err = a.Report(&proto.ChunkReport{StationID: 3, Sat: 1,
		Chunks: []proto.ChunkInfo{{ID: 1, Bits: 1, Received: rxTime}}})
	if err != nil {
		t.Fatalf("report after idle period: %v (heartbeats failed to keep the session alive)", err)
	}
}

func TestIdleSessionDroppedWithoutHeartbeats(t *testing.T) {
	// Inverse of the above: an agent with a huge heartbeat interval gets
	// dropped by the server's read deadline while idle. Guards against the
	// deadline being silently disabled.
	srv := NewServer(nil)
	srv.ReadTimeout = 100 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	a := &StationAgent{ID: 4, Name: "lazy", HeartbeatEvery: time.Hour}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Dial(ctx, addr.String()); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		err = a.Report(&proto.ChunkReport{StationID: 4, Sat: 1,
			Chunks: []proto.ChunkInfo{{ID: 1, Bits: 1, Received: rxTime}}})
		if err != nil {
			return // dropped, as expected
		}
		time.Sleep(150 * time.Millisecond)
	}
	t.Fatal("server never dropped a silent station past its read deadline")
}

func TestCollatorSeqDedup(t *testing.T) {
	c := NewCollator()
	r := &proto.ChunkReport{StationID: 1, Sat: 7, Seq: 1,
		Chunks: []proto.ChunkInfo{{ID: 10, Bits: 100, Received: rxTime}}}
	if !c.Report(r) {
		t.Fatal("first delivery rejected")
	}
	// Replay of the same sequenced report: dropped.
	if c.Report(r) {
		t.Fatal("replay applied")
	}
	if got := c.Replays(); got != 1 {
		t.Fatalf("replays = %d, want 1", got)
	}
	if got := c.ReceivedBits(7); got != 100 {
		t.Fatalf("bits = %d, want 100 (replay must not double-count)", got)
	}
	// Same Seq from a different station is independent.
	if !c.Report(&proto.ChunkReport{StationID: 2, Sat: 7, Seq: 1,
		Chunks: []proto.ChunkInfo{{ID: 11, Bits: 50, Received: rxTime}}}) {
		t.Fatal("other station's seq 1 rejected")
	}
	// Unsequenced reports (legacy) always apply.
	if !c.Report(&proto.ChunkReport{StationID: 1, Sat: 7,
		Chunks: []proto.ChunkInfo{{ID: 12, Bits: 25, Received: rxTime}}}) {
		t.Fatal("unsequenced report rejected")
	}
	if got := c.LastSeq(1); got != 1 {
		t.Fatalf("lastSeq(1) = %d, want 1", got)
	}
}

func TestManagedAgentReconnectsAndResumes(t *testing.T) {
	srv, addr := startServer(t)

	a := &StationAgent{
		ID: 21, Name: "managed",
		HeartbeatEvery: 50 * time.Millisecond,
		Backoff:        Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := a.Connect(ctx, addr); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	report := func(id uint64) {
		t.Helper()
		err := a.Report(&proto.ChunkReport{StationID: 21, Sat: 5,
			Chunks: []proto.ChunkInfo{{ID: id, Bits: 10, Received: rxTime}}})
		if err != nil {
			t.Fatalf("report %d: %v", id, err)
		}
	}

	report(1)

	// Kill every server-side connection; the managed agent must redial,
	// resume, and carry on.
	srv.mu.Lock()
	for c := range srv.conns {
		c.Close()
	}
	srv.mu.Unlock()

	report(2)
	report(3)

	if got := srv.Collator.ReceivedChunks(5); got != 3 {
		t.Fatalf("collated %d chunks, want 3", got)
	}
	if got := srv.Collator.LastSeq(21); got != 3 {
		t.Fatalf("lastSeq = %d, want 3", got)
	}
}

func TestManagedAgentSurvivesServerRestart(t *testing.T) {
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	a := &StationAgent{
		ID: 30, Name: "restart",
		Backoff: Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := a.Connect(ctx, addr.String()); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	if err := a.Report(&proto.ChunkReport{StationID: 30, Sat: 1,
		Chunks: []proto.ChunkInfo{{ID: 1, Bits: 1, Received: rxTime}}}); err != nil {
		t.Fatal(err)
	}

	// Restart the backend on the same address with a fresh collator: seq
	// state is gone, which is fine — the agent adopts the new (lower)
	// resume point only when it is higher, so its own counter keeps rising
	// and dedup stays monotonic per backend lifetime.
	srv.Close()
	srv2 := NewServer(nil)
	ln, err := net.Listen("tcp", addr.String())
	if err != nil {
		t.Skipf("address %s not immediately reusable: %v", addr, err)
	}
	srv2.Serve(ln)
	t.Cleanup(func() { srv2.Close() })

	if err := a.Report(&proto.ChunkReport{StationID: 30, Sat: 1,
		Chunks: []proto.ChunkInfo{{ID: 2, Bits: 1, Received: rxTime}}}); err != nil {
		t.Fatalf("report after backend restart: %v", err)
	}
	if got := srv2.Collator.ReceivedChunks(1); got != 1 {
		t.Fatalf("new backend collated %d chunks, want 1", got)
	}
}

func TestConnectFailsFastOnVersionMismatch(t *testing.T) {
	// A managed agent must not retry forever against a backend that speaks
	// a different protocol version — that error is permanent.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if _, err := proto.Read(c); err != nil {
					return
				}
				_ = proto.Write(c, &proto.Error{Code: proto.CodeVersion, Msg: "incompatible"})
			}(conn)
		}
	}()

	a := &StationAgent{ID: 40, Name: "v?", Backoff: Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = a.Connect(ctx, ln.Addr().String())
	if !errors.Is(err, proto.ErrVersion) {
		t.Fatalf("connect error = %v, want proto.ErrVersion", err)
	}
	a.Close()
}

// replyInWriteConn is a connection whose peer answers inside Write: the
// reply reaches the reader before Write returns, and Write waits until
// the read loop has consumed it and come back for the next frame — the
// fastest a backend can answer.
type replyInWriteConn struct {
	net.Conn // unused; the session only calls the methods below
	reply    proto.Message

	mu         sync.Mutex
	cond       *sync.Cond
	buf        bytes.Buffer
	emptyReads int // Read calls that began with nothing buffered
	closed     bool
}

func newReplyInWriteConn(reply proto.Message) *replyInWriteConn {
	c := &replyInWriteConn{reply: reply}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *replyInWriteConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.buf.Len() == 0 {
		c.emptyReads++
		c.cond.Broadcast()
	}
	for c.buf.Len() == 0 && !c.closed {
		c.cond.Wait()
	}
	if c.closed {
		return 0, net.ErrClosed
	}
	return c.buf.Read(p)
}

func (c *replyInWriteConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	before := c.emptyReads
	if err := proto.Write(&c.buf, c.reply); err != nil {
		return 0, err
	}
	c.cond.Broadcast()
	for c.emptyReads == before && !c.closed {
		c.cond.Wait()
	}
	return len(p), nil
}

func (c *replyInWriteConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	return nil
}

func (c *replyInWriteConn) SetReadDeadline(time.Time) error  { return nil }
func (c *replyInWriteConn) SetWriteDeadline(time.Time) error { return nil }

// TestRoundTripReplyBeforeWriteReturns: a reply that is read and
// dispatched before the request's Write returns must still reach the
// caller. With the response slot registered only after the write, the
// reply is dropped as unsolicited and the caller blocks.
func TestRoundTripReplyBeforeWriteReturns(t *testing.T) {
	conn := newReplyInWriteConn(&proto.Resume{StationID: 3, LastSeq: 41})
	a := &StationAgent{ID: 3, Logf: t.Logf}
	s := &session{
		a:            a,
		conn:         conn,
		readTimeout:  time.Minute,
		writeTimeout: time.Minute,
		done:         make(chan struct{}),
		hbStop:       make(chan struct{}),
	}
	go s.readLoop()
	defer func() {
		s.fail(errors.New("test done"))
		<-s.done
	}()

	type result struct {
		msg proto.Message
		err error
	}
	got := make(chan result, 1)
	go func() {
		msg, err := s.roundTrip(&proto.Resume{StationID: 3})
		got <- result{msg, err}
	}()
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("roundTrip: %v", r.err)
		}
		rs, ok := r.msg.(*proto.Resume)
		if !ok || rs.LastSeq != 41 {
			t.Fatalf("roundTrip reply = %#v, want Resume with LastSeq 41", r.msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("roundTrip still blocked: the reply was dispatched before its response slot existed")
	}
}
