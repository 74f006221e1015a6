package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ffq"
	"ffq/internal/broker"
	"ffq/internal/broker/client"
)

const (
	// batch is the batch size of the queue, wire and WAL calls and the
	// publisher's MaxBatch in the closed-loop workloads.
	batch = 64
	// rtBlock is the number of ping-pong round trips timed together;
	// one clock read costs ~100 ns here, a round trip ~600 ns.
	rtBlock = 1024
	// sampleEvery samples 1 in 64 messages for Publish/Recv spans and
	// closed-loop latency.
	sampleEvery = 64
	topic       = "bench"
	// setupsPerSession is how many times a broker session is set up.
	setupsPerSession = 3
	// maxBacklog bounds how long after it was due the paced
	// workload's last message may arrive, in the median session: a
	// broker slower than the offered rate falls further behind the
	// longer a session runs. At full scale 50 ms is 97% of the offered
	// rate over a 1.5 s session; a delivery's own latency is about 1 ms.
	maxBacklog = 50 * time.Millisecond
	// deliveryTimeout bounds every wait for delivery, so a lost
	// message fails the run instead of hanging it.
	deliveryTimeout = 30 * time.Second
)

// msgTrace is the trace id shared by a sampled message's spans.
func msgTrace(seq uint64) uint64 { return 1<<62 | seq }

// sampled picks 1 in sampleEvery messages by a hash of the sequence
// number, so that the sample is not aligned with the 64-message
// batches: the first Recv of a batch waits for the frame, the others
// do not. Message 0 is never sampled: its Recv waits out the set-up,
// which scaled by sampleEvery would swamp the wait fractions.
func sampled(seq uint64) bool { return seq != 0 && (seq*0x9e3779b97f4a7c15)>>58 == 0 }

// ---- queue: the paper's layer alone ----

// queue builds an SPMC queue and two SPSC queues per session and runs
// three phases: one goroutine cycling 64-value batches through the
// SPMC queue (the gated rate and CPU), the same batches from one
// producer to one consumer goroutine (reported only), and SPSC
// ping-pong round trips (the gated latency). One consumer, because a
// second spinning consumer on 2 CPUs measures the scheduler.
//
// The 1P1C rate is not gated: it is set by where the host places the
// two vCPUs, and two sets of ten runs on a 2-vCPU VM gave medians of
// 33 and 59 M/s (spreads 0.11 and 0.28). The cycle keeps both ends
// of the queue on one core, so it measures the cost of the calls
// themselves; the ping-pong measures the cross-core hand-off.
func (b *bench) queue(s *sink) error {
	n, blocks := b.n(1<<20), max(4, b.n(64*batch)/batch)
	var handOffs []float64
	err := b.sessions(s, 3, func(i int, tr *tracer) error {
		rate, err := b.queueSession(s, tr, uint64(i+1), n, blocks, false)
		handOffs = append(handOffs, rate)
		return err
	})
	s.extra["handoff_msgs_per_s"] = median(handOffs)
	return err
}

// queueSession runs one set-up and the three phases and returns the
// 1P1C phase's rate; lap lets its producer run into a full queue.
func (b *bench) queueSession(s *sink, tr *tracer, trace uint64, n, blocks int, lap bool) (float64, error) {
	t0 := time.Now()
	sess := tr.open("session.queue", -1, trace)
	defer tr.close(sess)
	q, err := ffq.NewSPMC[uint64](1024)
	if err != nil {
		return 0, err
	}
	ping, err := ffq.NewSPSC[uint64](1024)
	if err != nil {
		return 0, err
	}
	pong, err := ffq.NewSPSC[uint64](1024)
	if err != nil {
		return 0, err
	}
	// The queues exist, so the first value can be enqueued: a consumer
	// need not run yet.
	s.setups = append(s.setups, time.Since(t0).Seconds())

	if err := b.cycle(s, q, n, tr, sess, trace); err != nil {
		return 0, err
	}
	rate, err := b.handOff(s, q, n, lap)
	if err != nil {
		return 0, err
	}
	if lap {
		s.gaps += q.Gaps()
		s.gapMsgs += int64(n) + 1
	} else {
		s.extra["gaps"] += float64(q.Gaps())
	}

	// Ping-pong: the consumer above has returned, so again only two
	// goroutines spin.
	ponged := make(chan struct{})
	go func() {
		defer close(ponged)
		for {
			v, ok := ping.Dequeue()
			if !ok {
				pong.Close()
				return
			}
			pong.Enqueue(v)
		}
	}()
	phase := tr.open("phase.pingpong", sess, trace)
	var v uint64
	for k := 0; k < blocks; k++ {
		t := time.Now()
		for j := 0; j < rtBlock; j++ {
			ping.Enqueue(v)
			if got, ok := pong.Dequeue(); !ok || got != v {
				s.failed++
			}
			v++
		}
		s.lat = append(s.lat, float64(time.Since(t).Nanoseconds())/rtBlock/1e3)
		tr.leaf("ffq.SPSC.PingPongBlock", phase, trace, t)
	}
	ping.Close()
	<-ponged
	tr.close(phase)
	s.attempted += int64(v)
	return rate, nil
}

// cycle moves n values through q on one goroutine: each step enqueues
// one batch and dequeues one, with the queue kept half full so that
// the calls walk every cell. Its rate and CPU are the session's.
func (b *bench) cycle(s *sink, q *ffq.SPMC[uint64], n int, tr *tracer, sess int32, trace uint64) error {
	var chk checker
	var buf, dst [batch]uint64
	var seq uint64
	enq := func() {
		for j := range buf {
			buf[j] = seq
			seq++
		}
		q.EnqueueBatch(buf[:])
	}
	deq := func() {
		m, ok := q.DequeueBatch(dst[:])
		if m != batch || !ok {
			chk.bad++
		}
		for _, v := range dst[:m] {
			chk.observe(v)
		}
	}
	depth := q.Cap() / 2 / batch
	for k := 0; k < depth; k++ {
		enq()
	}
	phase := tr.open("phase.cycle", sess, trace)
	var d time.Duration
	err := s.mainPhase(int64(n), func() error {
		start := time.Now()
		for k := 0; k < n/batch; k++ {
			if tr != nil && k%sampleEvery == 0 {
				t := time.Now()
				enq()
				tr.leaf("ffq.SPMC.EnqueueBatch", phase, trace, t)
				t = time.Now()
				deq()
				tr.leaf("ffq.SPMC.DequeueBatch", phase, trace, t)
				continue
			}
			enq()
			deq()
		}
		d = time.Since(start)
		return nil
	})
	tr.close(phase)
	for k := 0; k < depth; k++ {
		deq()
	}
	s.rate(float64(n)/d.Seconds(), tr != nil)
	s.attempted += int64(seq)
	s.failed += chk.finish(seq)
	return err
}

// handOff moves n values through q from this goroutine to one
// consumer goroutine in 64-value batches, closes q and returns the
// rate. Unless lap is set, the producer waits until Len() leaves room
// for two batches: Len() counts the ranks of the consumer's batch in
// flight as taken before their cells are free, and one batch of
// margin covers them, so the producer never laps the consumer. A
// producer that laps a full FFQ queue turns its enqueues into gap
// marks; that regime is the layer probe's (core.lapped_msgs_per_s).
func (b *bench) handOff(s *sink, q *ffq.SPMC[uint64], n int, lap bool) (float64, error) {
	var chk checker
	ready := make(chan struct{})
	done := make(chan time.Time, 1)
	go func() {
		// Value 0 is a handshake, taken alone before the clock starts.
		if v, ok := q.Dequeue(); ok {
			chk.observe(v)
		}
		close(ready)
		var dst [batch]uint64
		for {
			m, ok := q.DequeueBatch(dst[:])
			for _, v := range dst[:m] {
				chk.observe(v)
			}
			if !ok {
				done <- time.Now()
				return
			}
		}
	}()
	q.Enqueue(0)
	<-ready
	var buf [batch]uint64
	seq := uint64(1)
	start := time.Now()
	for k := 0; k < n/batch; k++ {
		for j := range buf {
			buf[j] = seq
			seq++
		}
		if !lap {
			for q.Len() > q.Cap()-2*batch {
			}
		}
		q.EnqueueBatch(buf[:])
	}
	q.Close()
	var end time.Time
	select {
	case end = <-done:
	case <-time.After(deliveryTimeout):
		return 0, errTimeout
	}
	s.attempted += int64(n) + 1
	s.failed += chk.finish(uint64(n) + 1)
	return float64(n) / end.Sub(start).Seconds(), nil
}

// singles times 1P1C Enqueue/Dequeue of single values; reported, not
// gated, because free-running single-op throughput does not repeat.
func (b *bench) singles(s *sink, n int) (float64, error) {
	q, err := ffq.NewSPMC[uint64](1024)
	if err != nil {
		return 0, err
	}
	var chk checker
	done := make(chan time.Time, 1)
	go func() {
		for {
			v, ok := q.Dequeue()
			if !ok {
				done <- time.Now()
				return
			}
			chk.observe(v)
		}
	}()
	id := b.probeTr.open("phase.singles", -1, 0)
	start := time.Now()
	for i := 0; i < n; i++ {
		q.Enqueue(uint64(i))
	}
	q.Close()
	end := <-done
	b.probeTr.close(id)
	s.attempted += int64(n)
	s.failed += chk.finish(uint64(n))
	return float64(n) / end.Sub(start).Seconds(), nil
}

// ---- broker workloads ----

// session is one broker with its publisher and subscriber
// connections and the goroutine receiving on the subscription.
type session struct {
	env      *brokerEnv
	pub, sub *client.Client
	rc       *receiver
	tr       *tracer
	span     int32
	trace    uint64
	// seq is the next sequence number to publish.
	seq uint64
	// clock is the publisher's time in client calls, traced sessions only.
	clock waitClock
}

// waitClock accumulates, in traced sessions, the time a load goroutine
// spent inside client calls (in) and the time it was running (all).
// Every call is timed, not a sample: a few long waits dominate the
// total, and a 1-in-64 sample scaled up misses or multiplies them.
type waitClock struct{ in, all time.Duration }

func (w *waitClock) add(o waitClock) {
	w.in += o.in
	w.all += o.all
}

// dial starts a broker and connects the publisher and a live
// subscriber. It returns once both connections have answered a PING,
// which the broker handles after the CONSUME sent before it: from
// then on a published message has a consumer.
func (b *bench) dial(opts broker.Options, pubOpts client.Options, every bool, tr *tracer, trace uint64) (*session, error) {
	c := &session{tr: tr, trace: trace}
	c.span = tr.open("session.broker", -1, trace)
	var err error
	if c.env, err = startBroker(opts); err != nil {
		return nil, err
	}
	t := time.Now()
	c.pub, err = client.Dial(c.env.addr, pubOpts)
	tr.leaf("client.Dial", c.span, trace, t)
	if err != nil {
		return nil, err
	}
	if c.sub, err = client.Dial(c.env.addr, client.Options{}); err != nil {
		return nil, err
	}
	t = time.Now()
	sub, err := c.sub.Subscribe(topic, 0)
	tr.leaf("client.Subscribe", c.span, trace, t)
	if err != nil {
		return nil, err
	}
	if err := c.ping(c.sub, 1); err != nil {
		return nil, err
	}
	if err := c.ping(c.pub, 4); err != nil {
		return nil, err
	}
	c.rc = b.listen(sub, false, every, ^uint64(0), tr, c.span, trace)
	return c, nil
}

// setUp times setupsPerSession set-ups of an in-memory broker
// session and keeps the last: a set-up is short next to a session, and
// the median of many repeats where that of a few does not.
func (b *bench) setUp(s *sink, pubOpts client.Options, every bool, tr *tracer, trace uint64) (*session, error) {
	for k := 1; ; k++ {
		t0 := time.Now()
		c, err := b.dial(broker.Options{}, pubOpts, every, tr, trace)
		if err != nil {
			return nil, err
		}
		s.setups = append(s.setups, time.Since(t0).Seconds())
		if k == setupsPerSession {
			return c, nil
		}
		if err := b.close(s, c); err != nil {
			return nil, err
		}
	}
}

func (c *session) ping(cl *client.Client, n int) error {
	for i := 0; i < n; i++ {
		t := time.Now()
		if _, err := cl.Ping(); err != nil {
			return err
		}
		c.tr.leaf("client.Ping", c.span, c.trace, t)
	}
	return nil
}

// publish sends count messages closed-loop and waits until the broker
// has acknowledged all of them. The stamp is read once per batch.
func (c *session) publish(b *bench, count int) error {
	phase := c.openPhase()
	defer c.closePhase(phase, time.Now())
	buf := make([]byte, payloadSize)
	var now int64
	for i := 0; i < count; i++ {
		seq := c.seq
		c.seq++
		if seq%batch == 0 {
			now = int64(time.Since(b.start))
		}
		b.fill(buf, seq, now)
		if err := c.publishOne(buf, seq, phase); err != nil {
			return err
		}
	}
	return c.drain(phase, true)
}

func (c *session) openPhase() int32 { return c.tr.open("phase.publish", c.span, c.trace) }

func (c *session) closePhase(phase int32, start time.Time) {
	if c.tr != nil {
		c.clock.all += time.Since(start)
	}
	c.tr.close(phase)
}

func (c *session) publishOne(buf []byte, seq uint64, phase int32) error {
	if c.tr == nil {
		return c.pub.Publish(topic, buf)
	}
	t := time.Now()
	err := c.pub.Publish(topic, buf)
	c.clock.in += time.Since(t)
	if sampled(seq) {
		c.tr.leaf("client.Publish", phase, msgTrace(seq), t)
	}
	return err
}

// drain waits until the broker acknowledged every published message.
// The wait clock times every call; span says whether it also gets a
// span, so per-message drains can be sampled like Publish.
func (c *session) drain(phase int32, span bool) error {
	t := time.Now()
	err := c.pub.Drain()
	if c.tr != nil {
		c.clock.in += time.Since(t)
		if span {
			c.tr.leaf("client.Drain", phase, c.trace, t)
		}
	}
	return err
}

// ackLatency publishes count messages one at a time, each waiting for
// its ACK, and records every round trip in µs in s.rtt. It is reported,
// not gated: a few wake-ups make all of its ~25 µs, and on a shared
// 2-CPU host that swung by a quarter from run to run.
func (c *session) ackLatency(b *bench, s *sink, count int) error {
	phase := c.openPhase()
	defer c.closePhase(phase, time.Now())
	c.rc.target.Store(c.seq + uint64(count))
	buf := make([]byte, payloadSize)
	for i := 0; i < count; i++ {
		seq := c.seq
		c.seq++
		t := time.Now()
		b.fill(buf, seq, int64(t.Sub(b.start)))
		if err := c.publishOne(buf, seq, phase); err != nil {
			return err
		}
		if err := c.drain(phase, sampled(seq)); err != nil {
			return err
		}
		s.rtt = append(s.rtt, float64(time.Since(t).Nanoseconds())/1e3)
	}
	_, err := c.rc.wait()
	return err
}

// pace publishes count messages open-loop, one every period, each
// stamped with the time it was due, and returns how late the
// generator ran at worst and when, since the run started, the last
// message was due.
func (c *session) pace(b *bench, count int, period time.Duration) (late, last time.Duration, err error) {
	phase := c.openPhase()
	defer c.closePhase(phase, time.Now())
	buf := make([]byte, payloadSize)
	first := time.Since(b.start) + period
	for i := 0; i < count; i++ {
		due := first + time.Duration(i)*period
		last = due
		now := time.Since(b.start)
		if d := due - now; d > 0 {
			time.Sleep(d)
			now = time.Since(b.start)
		}
		late = max(late, now-due)
		seq := c.seq
		c.seq++
		b.fill(buf, seq, int64(due))
		if err := c.publishOne(buf, seq, phase); err != nil {
			return late, last, err
		}
	}
	return late, last, nil
}

// close tears the session down: the publisher closes, the broker
// drains (the subscription ends after the last message), the
// subscriber closes. It then checks that every published message
// arrived exactly once and in order.
func (b *bench) close(s *sink, c *session) error {
	err := c.pub.Close()
	if serr := b.stop(c.env); err == nil {
		err = serr
	}
	if cerr := c.sub.Close(); err == nil && !errors.Is(cerr, net.ErrClosed) {
		err = cerr
	}
	<-c.rc.done
	c.tr.close(c.span)
	b.pubWait.add(c.clock)
	b.recvWait.add(c.rc.clock)
	s.attempted += int64(c.seq)
	s.failed += c.rc.chk.finish(c.seq)
	return err
}

// receiver consumes a subscription on its own goroutine and checks
// delivery. It signals reached when the count of received messages
// hits target, which the publishing side sets before each phase.
type receiver struct {
	chk     checker
	target  atomic.Uint64
	reached chan time.Time
	first   chan time.Time
	done    chan struct{}
	// every records each message's stamp→Recv latency in lat (µs);
	// otherwise 1 in 64 messages' goes to sampled.
	every        bool
	lat, sampled []float64
	// clock is the subscriber's time in Recv, traced sessions only.
	clock waitClock
}

func (b *bench) listen(sub *client.Subscription, replay, every bool, target uint64, tr *tracer, parent int32, trace uint64) *receiver {
	rc := &receiver{
		every:   every,
		chk:     checker{tail: b.tail},
		reached: make(chan time.Time, 1),
		first:   make(chan time.Time, 1),
		done:    make(chan struct{}),
	}
	rc.target.Store(target)
	go func() {
		defer close(rc.done)
		phase := tr.open("phase.recv", parent, trace)
		defer tr.close(phase)
		start := time.Now()
		defer func() {
			if tr != nil {
				rc.clock.all = time.Since(start)
			}
		}()
		//ffq:ignore spin-backoff not a spin loop: every iteration blocks in Recv; the atomic load only compares the count with the phase target
		for {
			var t time.Time
			if tr != nil {
				t = time.Now()
			}
			var msg []byte
			var off uint64
			var ok bool
			if replay {
				var m client.Msg
				m, ok = sub.RecvMsg()
				msg, off = m.Payload, m.Offset
			} else {
				msg, ok = sub.Recv()
			}
			if !ok {
				return
			}
			seq := rc.chk.message(msg)
			if tr != nil {
				rc.clock.in += time.Since(t)
				if sampled(seq) {
					tr.leaf("client.Recv", phase, msgTrace(seq), t)
				}
			}
			if replay && off != seq {
				rc.chk.bad++
			}
			if rc.every || sampled(seq) {
				lat := float64(int64(time.Since(b.start))-stamp(msg)) / 1e3
				if rc.every {
					rc.lat = append(rc.lat, lat)
				} else {
					rc.sampled = append(rc.sampled, lat)
				}
			}
			if rc.chk.received == 1 {
				signal(rc.first)
			}
			if rc.chk.received == rc.target.Load() {
				signal(rc.reached)
			}
		}
	}()
	return rc
}

// signal sends the current time without blocking; each channel has
// room for the one signal its reader waits for.
func signal(ch chan time.Time) {
	select {
	case ch <- time.Now():
	default:
	}
}

// wait returns when the receiver hit its target.
func (rc *receiver) wait() (time.Time, error) { return rc.await(rc.reached) }

func (rc *receiver) await(ch chan time.Time) (time.Time, error) {
	select {
	case t := <-ch:
		return t, nil
	case <-rc.done:
		select {
		case t := <-ch:
			return t, nil
		default:
		}
		return time.Time{}, fmt.Errorf("subscription ended before message %d", rc.target.Load())
	case <-time.After(deliveryTimeout):
		return time.Time{}, errTimeout
	}
}

// stream saturates client → wire → broker → topic queue → deliver in
// a closed loop: one publisher with MaxBatch 64 and the default
// window, one subscriber. Its latency is the closed loop's time per
// message, because every true latency measured on it swung past the
// bound from run to run on a shared 2-CPU host (see METRICS.md); a
// phase before the loop times single-message publish→ACK round trips
// on the same connections, reported only.
func (b *bench) stream(s *sink) error {
	n, latN := b.n(1<<18), b.n(4096)
	var loop []float64
	err := b.sessions(s, 3, func(i int, tr *tracer) error {
		c, err := b.streamSession(s, tr, uint64(i+1), n, latN)
		if c != nil {
			loop = append(loop, c.rc.sampled...)
		}
		return err
	})
	s.extra["closed_loop_lat_p50_us"] = quantile(loop, 0.5)
	s.extra["ack_rtt_p50_us"] = quantile(s.rtt, 0.5)
	return err
}

func (b *bench) streamSession(s *sink, tr *tracer, trace uint64, n, latN int) (*session, error) {
	c, err := b.setUp(s, client.Options{MaxBatch: batch}, false, tr, trace)
	if err != nil {
		return nil, err
	}
	if err := c.ackLatency(b, s, latN); err != nil {
		return c, err
	}
	var start, end time.Time
	err = s.mainPhase(int64(n), func() error {
		c.rc.target.Store(c.seq + uint64(n))
		start = time.Now()
		if err := c.publish(b, n); err != nil {
			return err
		}
		var err error
		end, err = c.rc.wait()
		return err
	})
	if err != nil {
		return c, err
	}
	s.rate(float64(n)/end.Sub(start).Seconds(), tr != nil)
	s.lat = append(s.lat, end.Sub(start).Seconds()*1e6/float64(n))
	return c, b.close(s, c)
}

// paced offers messages open-loop at 2 000/s and then 20 000/s, each
// flushed on its own (MaxBatch 1), and times each from when it was
// due to its Recv. The broker is mostly idle, so wake-ups set the
// latency. Its msgs_per_s follows the offered rate; it is a check that
// the broker keeps up, and the run fails when the median session's
// last message arrived more than maxBacklog after it was due.
func (b *bench) paced(s *sink) error {
	lo, hi := b.n(2048), b.n(10240)
	var hiLat, keepUp, backlog []float64
	var lateMax time.Duration
	err := b.sessions(s, 3, func(i int, tr *tracer) error {
		c, err := b.setUp(s, client.Options{MaxBatch: 1}, true, tr, uint64(i+1))
		if err != nil {
			return err
		}
		var start time.Time
		err = s.mainPhase(int64(lo), func() error {
			c.rc.target.Store(uint64(lo))
			start = time.Now()
			late, _, err := c.pace(b, lo, 500*time.Microsecond)
			lateMax = max(lateMax, late)
			if err != nil {
				return err
			}
			_, err = c.rc.wait()
			return err
		})
		if err != nil {
			return err
		}
		c.rc.target.Store(uint64(lo + hi))
		late, last, err := c.pace(b, hi, 50*time.Microsecond)
		lateMax = max(lateMax, late)
		if err != nil {
			return err
		}
		end, err := c.rc.wait()
		if err != nil {
			return err
		}
		// Offered: the messages over the span from start to the last
		// due time; delivered: over the span from start to its Recv.
		offered := last - start.Sub(b.start)
		s.rate(float64(lo+hi)/end.Sub(start).Seconds(), tr != nil)
		keepUp = append(keepUp, offered.Seconds()/end.Sub(start).Seconds())
		backlog = append(backlog, (end.Sub(b.start) - last).Seconds())
		if err := b.close(s, c); err != nil {
			return err
		}
		s.lat = append(s.lat, c.rc.lat[:lo]...)
		hiLat = append(hiLat, c.rc.lat[lo:]...)
		return nil
	})
	s.extra["keep_up"] = median(keepUp)
	s.extra["backlog_ms"] = 1e3 * median(backlog)
	s.extra["lat_p50_us_2k"] = quantile(s.lat, 0.5)
	s.extra["lat_p99_us_2k"] = quantile(s.lat, 0.99)
	s.extra["lat_p50_us_20k"] = quantile(hiLat, 0.5)
	s.extra["lat_p99_us_20k"] = quantile(hiLat, 0.99)
	s.extra["lat_samples_2k"] = float64(len(s.lat))
	s.extra["lat_samples_20k"] = float64(len(hiLat))
	s.extra["gen_late_max_us"] = float64(lateMax.Nanoseconds()) / 1e3
	if lag := median(backlog); err == nil && lag > maxBacklog.Seconds() {
		err = fmt.Errorf("broker fell behind: the last message arrived %.1f ms after it was due, want at most %v", 1e3*lag, maxBacklog)
	}
	return err
}

// durable runs write-then-read cycles on a durable topic: publish
// closed-loop until every message is ACKed (appended to the WAL) with
// a live subscriber draining the topic, restart the broker on the
// same directory, and replay the log from offset 0. Each cycle writes
// the same number of messages, so recovery scans the same log size.
func (b *bench) durable(s *sink) error {
	n, latN := b.n(1<<18), b.n(4096)
	var acks, replays []float64
	err := b.sessions(s, 3, func(i int, tr *tracer) error {
		ack, replay, err := b.durableCycle(s, tr, uint64(i+1), n, latN)
		acks, replays = append(acks, ack), append(replays, replay)
		return err
	})
	s.extra["ack_msgs_per_s"] = median(acks)
	s.extra["replay_msgs_per_s"] = median(replays)
	s.extra["ack_rtt_p50_us"] = quantile(s.rtt, 0.5)
	return err
}

func (b *bench) durableCycle(s *sink, tr *tracer, trace uint64, n, latN int) (ack, replay float64, err error) {
	dir := filepath.Join(b.data, fmt.Sprintf("durable-%d", trace))
	defer os.RemoveAll(dir)
	opts := broker.Options{DataDir: dir, Fsync: walSync}
	c, err := b.dial(opts, client.Options{MaxBatch: batch}, false, tr, trace)
	if err != nil {
		return 0, 0, err
	}
	if err := c.ackLatency(b, s, latN); err != nil {
		return 0, 0, err
	}
	var ackDur time.Duration
	err = s.mainPhase(int64(n), func() error {
		c.rc.target.Store(c.seq + uint64(n))
		start := time.Now()
		if err := c.publish(b, n); err != nil {
			return err
		}
		ackDur = time.Since(start)
		_, err := c.rc.wait()
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	if err := b.close(s, c); err != nil {
		return 0, 0, err
	}
	total := c.seq

	// Restart: set-up runs until the first replayed message arrives,
	// so it includes the WAL recovery scan of the whole log.
	t0 := time.Now()
	span := tr.open("session.replay", -1, trace)
	defer tr.close(span)
	env, err := startBroker(opts)
	if err != nil {
		return 0, 0, err
	}
	rcl, err := client.Dial(env.addr, client.Options{})
	if err != nil {
		return 0, 0, err
	}
	t := time.Now()
	sub, err := rcl.SubscribeFrom(topic, 0, 0, "")
	tr.leaf("client.SubscribeFrom", span, trace, t)
	if err != nil {
		return 0, 0, err
	}
	rc := b.listen(sub, true, false, total, tr, span, trace)
	first, err := rc.await(rc.first)
	if err != nil {
		return 0, 0, err
	}
	s.setups = append(s.setups, first.Sub(t0).Seconds())
	var end time.Time
	err = s.mainPhase(int64(total), func() error {
		var err error
		end, err = rc.wait()
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	if err := b.stop(env); err != nil {
		return 0, 0, err
	}
	if err := rcl.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		return 0, 0, err
	}
	<-rc.done
	b.recvWait.add(rc.clock)
	s.attempted += int64(total)
	s.failed += rc.chk.finish(total)
	ack = float64(n) / ackDur.Seconds()
	replay = float64(total-1) / end.Sub(first).Seconds()
	// One message written and read back: the two per-message times add.
	s.rate(1/(1/ack+1/replay), tr != nil)
	s.lat = append(s.lat, 1e6*(1/ack+1/replay))
	return ack, replay, nil
}
