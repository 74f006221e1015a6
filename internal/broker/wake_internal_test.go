package broker

import (
	"context"
	"net"
	"testing"
	"time"

	"ffq/internal/broker/client"
	"ffq/internal/wal"
	"ffq/internal/wire"
)

// TestReplayFollowerExitsOnConnDeath parks a replay follower at the
// head of an idle log, drops its connection, and times how long the
// follower takes to unlink from its topic. The head park selects on
// the connection's death, so no timer bounds the exit.
func TestReplayFollowerExitsOnConnDeath(t *testing.T) {
	b, err := New(Options{DataDir: t.TempDir(), Fsync: wal.SyncOff})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer b.Shutdown(context.Background())
	srv, cli := net.Pipe()
	b.ServeConn(srv)
	c := client.New(cli, client.Options{})
	if _, err := c.SubscribeFrom("quiet", 16, 0, ""); err != nil {
		t.Fatalf("SubscribeFrom: %v", err)
	}
	if _, err := c.Ping(); err != nil { // CONSUME handled, follower started
		t.Fatalf("ping: %v", err)
	}
	tp, err := b.getTopic("quiet", wire.NoPartition)
	if err != nil {
		t.Fatalf("getTopic: %v", err)
	}
	subs := func() int {
		tp.mu.Lock()
		defer tp.mu.Unlock()
		return len(tp.subs)
	}
	if subs() != 1 {
		t.Fatalf("topic has %d subscriptions, want 1", subs())
	}
	// Let the follower reach its park on the empty log. A follower that
	// has not parked yet sees the death on its next check instead, so
	// the bound below holds either way.
	time.Sleep(20 * time.Millisecond)

	start := time.Now()
	c.Close()
	for subs() != 0 {
		if time.Since(start) > time.Second {
			t.Fatal("replay follower still linked 1s after its connection died")
		}
		time.Sleep(time.Millisecond)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("replay follower exited %v after its connection died, want under 50ms", d)
	}
}

// TestShutdownEndsCreditParkedSubs closes a topic that still holds
// messages while both of its subscriptions are parked on credit. One
// consumer then drains the topic; the other never reads until Shutdown
// returns, so its subscription stays parked on credit with no CREDIT
// to come. The subscription that drains the closed topic must wake it
// to send its end-of-stream marker, or Shutdown runs into its deadline.
func TestShutdownEndsCreditParkedSubs(t *testing.T) {
	const total = 20
	b, err := New(Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	dial := func() *client.Client {
		srv, cli := net.Pipe()
		b.ServeConn(srv)
		return client.New(cli, client.Options{})
	}
	ca, cb, cp := dial(), dial(), dial()
	defer ca.Close()
	defer cb.Close()
	defer cp.Close()
	subA, err := ca.Subscribe("end", 1)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	subB, err := cb.Subscribe("end", 1)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	for i := 0; i < total; i++ {
		if err := cp.Publish("end", []byte{byte(i)}); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
	if err := cp.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Both one-message windows are used: both subscriptions park on
	// credit with the rest of the messages queued.
	deadline := time.Now().Add(5 * time.Second)
	for b.Metrics().MsgsOut.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d messages, want 2", b.Metrics().MsgsOut.Load())
		}
		time.Sleep(time.Millisecond)
	}
	tp, err := b.getTopic("end", wire.NoPartition)
	if err != nil {
		t.Fatalf("getTopic: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- b.Shutdown(ctx) }()
	for !tp.q.Closed() {
		if time.Now().After(deadline) {
			t.Fatal("Shutdown did not close the topic")
		}
		time.Sleep(time.Millisecond)
	}
	if n := tp.q.Len(); n != total-2 {
		t.Fatalf("closed topic holds %d messages, want %d", n, total-2)
	}

	got := 0
	for {
		if _, ok := subA.Recv(); !ok {
			break
		}
		got++
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for {
		if _, ok := subB.Recv(); !ok {
			break
		}
		got++
	}
	if !subA.Ended() || !subB.Ended() {
		t.Fatalf("end-of-stream markers: draining sub %v, credit-parked sub %v; want both", subA.Ended(), subB.Ended())
	}
	if got != total {
		t.Fatalf("received %d messages, want %d", got, total)
	}
}

// TestEnqueueWakesOneWaiter parks eight subscriptions on an empty
// topic and checks that an enqueue wakes exactly one of them, and that
// a claimer leaving messages behind, or a woken subscription that
// exits, hands the next one on: each
// message costs at most one goroutine wake-up, however many
// subscriptions share the topic.
func TestEnqueueWakesOneWaiter(t *testing.T) {
	b, err := New(Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer b.Shutdown(context.Background())
	tp, err := b.getTopic("herd", wire.NoPartition)
	if err != nil {
		t.Fatalf("getTopic: %v", err)
	}
	subs := make([]*sub, 8)
	for i := range subs {
		subs[i] = &sub{t: tp, wake: make(chan struct{}, 1), widx: -1}
		if !subs[i].parkEmpty() {
			t.Fatal("parkEmpty on an empty open topic did not park")
		}
	}
	woken := func() []*sub {
		var w []*sub
		for _, s := range subs {
			select {
			case <-s.wake:
				w = append(w, s)
			default:
			}
		}
		return w
	}

	h, ok := tp.q.AcquireProducer()
	if !ok {
		t.Fatal("no producer lane")
	}
	tp.enqueue(h, []msg{{payload: []byte("a")}, {payload: []byte("b")}})
	first := woken()
	if len(first) != 1 || tp.parked.Load() != 7 {
		t.Fatalf("enqueue woke %d subscriptions (%d still parked), want 1 (7)", len(first), tp.parked.Load())
	}
	// The woken subscription claims one message with a one-message
	// window and hands the other on.
	if n := tp.q.TryDequeueBatch(make([]msg, 1)); n != 1 {
		t.Fatalf("claimed %d messages, want 1", n)
	}
	tp.handOff()
	second := woken()
	if len(second) != 1 || second[0] == first[0] || tp.parked.Load() != 6 {
		t.Fatalf("hand-off woke %d subscriptions (%d still parked), want 1 other (6)", len(second), tp.parked.Load())
	}
	if n := tp.q.TryDequeueBatch(make([]msg, 1)); n != 1 {
		t.Fatalf("claimed %d messages, want 1", n)
	}
	tp.handOff()
	if w := woken(); len(w) != 0 {
		t.Fatalf("hand-off on an empty topic woke %d subscriptions", len(w))
	}
	// A woken subscription that exits instead of claiming passes its
	// wake-up on.
	tp.enqueue(h, []msg{{payload: []byte("c")}})
	leaving := woken()
	if len(leaving) != 1 {
		t.Fatalf("enqueue woke %d subscriptions, want 1", len(leaving))
	}
	leaving[0].unlink()
	if w := woken(); len(w) != 1 || tp.parked.Load() != 4 {
		t.Fatalf("exit woke %d subscriptions (%d still parked), want 1 (4)", len(w), tp.parked.Load())
	}
	for _, s := range subs {
		s.unpark()
	}
	if n := tp.parked.Load(); n != 0 || len(tp.waiters) != 0 {
		t.Fatalf("%d subscriptions (%d waiters) still parked after unpark", n, len(tp.waiters))
	}
}

// TestHandOffPastCreditLimitedSub parks two subscriptions on an empty
// topic, a one-message window one on top, and publishes a two-message
// batch. The enqueue wakes only the top waiter; it can claim one
// message, so it must hand the other to the second waiter instead of
// leaving it queued until someone's next CREDIT or enqueue.
func TestHandOffPastCreditLimitedSub(t *testing.T) {
	b, err := New(Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer b.Shutdown(context.Background())
	dial := func(opts client.Options) *client.Client {
		srv, cli := net.Pipe()
		b.ServeConn(srv)
		return client.New(cli, opts)
	}
	tp, err := b.getTopic("hand", wire.NoPartition)
	if err != nil {
		t.Fatalf("getTopic: %v", err)
	}
	waitParked := func(n int32) {
		deadline := time.Now().Add(5 * time.Second)
		for tp.parked.Load() != n {
			if time.Now().After(deadline) {
				t.Fatalf("%d subscriptions parked, want %d", tp.parked.Load(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	wide, narrow := dial(client.Options{}), dial(client.Options{})
	defer wide.Close()
	defer narrow.Close()
	subWide, err := wide.Subscribe("hand", 8)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	waitParked(1)
	if _, err := narrow.Subscribe("hand", 1); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	waitParked(2)

	p := dial(client.Options{MaxBatch: 2})
	defer p.Close()
	for _, m := range []string{"a", "b"} {
		if err := p.Publish("hand", []byte(m)); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	got := make(chan struct{})
	go func() {
		if _, ok := subWide.Recv(); ok {
			close(got)
		}
	}()
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatalf("second waiter got nothing in 2s (%d messages still queued): the hand-off was lost", tp.q.Len())
	}
}
