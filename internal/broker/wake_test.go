package broker_test

import (
	"context"
	"encoding/binary"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"ffq/internal/broker"
	"ffq/internal/broker/client"
)

// TestWakeStress drives every message through both subscription
// parks: credit windows of 1–2 empty the window on each delivery (park
// on credit until the consumer's CREDIT), and publishes with random
// pauses leave the topic empty between bursts (park on an empty queue
// until the producer's enqueue). A lost wake-up shows as a message
// that never arrives. Shutdown then runs while the subscriptions are
// parked — the eager ones on the empty topic, the lazy one on credit —
// and must reach every end-of-stream marker.
//
// "single" publishes one message per PRODUCE frame. "lane-wrap" sends
// 64-message frames into 8-slot topic lanes, so every batch needs more
// space than the lane has and must wake the subscriptions before it
// waits for them.
func TestWakeStress(t *testing.T) {
	t.Run("single", func(t *testing.T) { wakeStress(t, broker.Options{}, 1) })
	t.Run("lane-wrap", func(t *testing.T) { wakeStress(t, broker.Options{TopicLaneDepth: 8}, 64) })
}

func wakeStress(t *testing.T, opts broker.Options, burst int) {
	const (
		producers = 2
		perProd   = 512
		total     = producers * perProd
	)
	b, addr := startBroker(t, opts)

	type recvd struct {
		producer byte
		seq      uint64
	}
	windows := []int{1, 2, 1}
	got := make([][]recvd, len(windows)+1)
	var consumerWG sync.WaitGroup
	consume := func(ci int, c *client.Client, sub *client.Subscription) {
		defer consumerWG.Done()
		for {
			m, ok := sub.Recv()
			if !ok {
				if !sub.Ended() {
					t.Errorf("consumer %d: stream ended without end-of-stream marker: %v", ci, c.Err())
				}
				return
			}
			got[ci] = append(got[ci], recvd{m[0], binary.BigEndian.Uint64(m[1:])})
		}
	}
	for ci, w := range windows {
		c, err := client.Dial(addr, client.Options{})
		if err != nil {
			t.Fatalf("consumer dial: %v", err)
		}
		defer c.Close()
		sub, err := c.Subscribe("wake", w)
		if err != nil {
			t.Fatalf("subscribe: %v", err)
		}
		consumerWG.Add(1)
		go consume(ci, c, sub)
	}
	// The lazy consumer does not read until Shutdown has begun, so its
	// subscription spends the run parked on credit once its one-message
	// window is used.
	lazyC, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("consumer dial: %v", err)
	}
	defer lazyC.Close()
	lazy, err := lazyC.Subscribe("wake", 1)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}

	var producerWG sync.WaitGroup
	for pi := 0; pi < producers; pi++ {
		producerWG.Add(1)
		go func(pi int) {
			defer producerWG.Done()
			c, err := client.Dial(addr, client.Options{MaxBatch: burst})
			if err != nil {
				t.Errorf("producer dial: %v", err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(pi) + 1))
			for seq := uint64(0); seq < perProd; seq++ {
				if err := c.Publish("wake", msg(byte(pi), seq)); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
				if (seq+1)%uint64(burst) != 0 {
					continue
				}
				switch rng.Intn(4) {
				case 0:
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				case 1:
					runtime.Gosched()
				}
			}
			if err := c.Drain(); err != nil {
				t.Errorf("drain: %v", err)
			}
		}(pi)
	}
	acked := make(chan struct{})
	go func() {
		producerWG.Wait()
		close(acked)
	}()
	select {
	case <-acked:
	case <-time.After(30 * time.Second):
		t.Fatal("producers still waiting for ACKs after 30s: a pump is stuck behind parked subscriptions")
	}

	// Every message leaves the broker before Shutdown, so the
	// subscriptions are parked when it starts.
	deadline := time.Now().Add(10 * time.Second)
	for b.Metrics().MsgsOut.Load() < total {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d messages: a wake-up was lost", b.Metrics().MsgsOut.Load(), total)
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- b.Shutdown(ctx) }()
	consumerWG.Add(1)
	consume(len(windows), lazyC, lazy)
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	consumerWG.Wait()

	seen := make(map[recvd]int)
	n := 0
	for ci := range got {
		n += len(got[ci])
		for _, r := range got[ci] {
			seen[r]++
		}
	}
	if n != total {
		t.Fatalf("received %d messages, want %d", n, total)
	}
	for r, k := range seen {
		if k != 1 {
			t.Fatalf("message (producer %d, seq %d) received %d times", r.producer, r.seq, k)
		}
	}
}

// TestIdleSubscribersCPU holds 500 subscriptions on an idle in-process
// broker and bounds the whole process's CPU time over one second: a
// parked subscription must cost nothing while no message or credit
// arrives.
func TestIdleSubscribersCPU(t *testing.T) {
	const subs = 500
	b, err := broker.New(broker.Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	clients := make([]*client.Client, 0, subs)
	for i := 0; i < subs; i++ {
		srv, cli := net.Pipe()
		b.ServeConn(srv)
		c := client.New(cli, client.Options{})
		clients = append(clients, c)
		if _, err := c.Subscribe("idle", 64); err != nil {
			t.Fatalf("subscribe %d: %v", i, err)
		}
		// The broker reads frames in order, so the PONG means the
		// subscription's delivery goroutine has been started.
		if _, err := c.Ping(); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	runtime.GC()

	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatalf("getrusage: %v", err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	const window = time.Second
	before, start := cpu(), time.Now()
	time.Sleep(window)
	used, elapsed := cpu()-before, time.Since(start)
	frac := float64(used) / float64(elapsed)
	t.Logf("%d idle subscriptions: %v CPU over %v (%.2f%% of one CPU)", subs, used, elapsed.Round(time.Millisecond), 100*frac)
	if frac > 0.02 {
		t.Errorf("idle subscriptions used %.2f%% of one CPU, want under 2%%", 100*frac)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, c := range clients {
		c.Close()
	}
}
