package main

import (
	"bytes"
	"os"
	"path/filepath"
	"time"

	"ffq/internal/wal"
	"ffq/internal/wire"
)

// probeTrace is the trace id of the layer probe's spans.
const probeTrace = 1 << 61

// probe runs after the workload in a traced run and times direct
// calls into every layer, so each traced run reports every per-layer
// metric whatever its workload exercised: two queue sessions, single
// Enqueue/Dequeue, PRODUCE frames encoded and decoded, WAL appends,
// recovery and reads, and a short broker stream for the broker and
// client counters. Its messages are checked like the workload's.
func (b *bench) probe() error {
	p, tr := b.probed, b.probeTr
	// The batch spans and the hand-off rate come from a session like
	// the workload's; the lapped session, untraced, gives the gaps and
	// the lapped rate.
	handOff, err := b.queueSession(p, tr, probeTrace, b.n(1<<18), 16, false)
	if err != nil {
		return err
	}
	p.extra["handoff_msgs_per_s"] = handOff
	lapped, err := b.queueSession(p, nil, probeTrace, b.n(1<<20), 16, true)
	if err != nil {
		return err
	}
	p.extra["lapped_msgs_per_s"] = lapped
	singles, err := b.singles(p, b.n(1<<19))
	if err != nil {
		return err
	}
	p.extra["singles_msgs_per_s"] = singles
	b.wireProbe(p, b.n(2048*batch)/batch)
	if err := b.walProbe(p, b.n(2048*batch)/batch); err != nil {
		return err
	}
	_, err = b.streamSession(p, tr, probeTrace, b.n(1<<16), b.n(batch))
	return err
}

// probeBatch fills msgs with messages numbered from seq on.
func (b *bench) probeBatch(msgs [][]byte, seq uint64) {
	for j := range msgs {
		b.fill(msgs[j], seq+uint64(j), 0)
	}
}

func newBatch() [][]byte {
	msgs := make([][]byte, batch)
	for j := range msgs {
		msgs[j] = make([]byte, payloadSize)
	}
	return msgs
}

// wireProbe encodes a 64-message PRODUCE frame n times, then reads,
// parses and walks it n times.
func (b *bench) wireProbe(p *sink, n int) {
	msgs := newBatch()
	b.probeBatch(msgs, 0)
	var buf wire.Buffer
	for k := 0; k < n; k++ {
		t := time.Now()
		buf.Reset()
		buf.PutProduce(0, []byte(topic), wire.NoPartition, msgs)
		b.probeTr.leaf("wire.PutProduce", -1, probeTrace, t)
	}
	frame := append([]byte(nil), buf.Bytes()...)
	src := bytes.NewReader(frame)
	r := wire.NewReader(src)
	chk := checker{tail: b.tail}
	for k := 0; k < n; k++ {
		src.Reset(frame)
		t := time.Now()
		f, err := r.Next()
		if err != nil {
			p.failed++
			continue
		}
		body, err := wire.ParseProduce(f)
		if err != nil {
			p.failed++
			continue
		}
		chk.next = 0
		for {
			m, ok := body.Next()
			if !ok {
				break
			}
			chk.message(m)
		}
		b.probeTr.leaf("wire.Decode", -1, probeTrace, t)
		if chk.next != batch {
			p.failed++
		}
	}
	p.attempted += int64(n) * batch
	p.failed += chk.bad
}

// walProbe appends n 64-message batches to a fresh log, reopens it
// (the recovery scan) and reads it back from offset 0.
func (b *bench) walProbe(p *sink, n int) error {
	dir := filepath.Join(b.data, "probe-wal")
	defer os.RemoveAll(dir)
	opts := wal.Options{Sync: walSync}
	l, err := wal.Open(dir, opts)
	if err != nil {
		return err
	}
	msgs := newBatch()
	for k := 0; k < n; k++ {
		b.probeBatch(msgs, uint64(k*batch))
		t := time.Now()
		base, err := l.Append(msgs)
		b.probeTr.leaf("wal.Append", -1, probeTrace, t)
		if err != nil {
			l.Close()
			return err
		}
		if base != uint64(k*batch) {
			p.failed++
		}
	}
	if err := l.Close(); err != nil {
		return err
	}
	t := time.Now()
	l, err = wal.Open(dir, opts)
	b.probeTr.leaf("wal.Open", -1, probeTrace, t)
	if err != nil {
		return err
	}
	defer l.Close()
	r := l.NewReader(0)
	defer r.Close()
	chk := checker{tail: b.tail}
	for {
		t := time.Now()
		_, got, err := r.Next(batch)
		if err != nil {
			return err
		}
		if len(got) == 0 {
			break
		}
		b.probeTr.leaf("wal.Reader.Next", -1, probeTrace, t)
		for _, m := range got {
			chk.message(m)
		}
	}
	p.extra["wal_read_msgs"] = float64(chk.received)
	p.attempted += int64(n) * batch
	p.failed += chk.finish(uint64(n) * batch)
	return nil
}

// layerMetrics computes the per-layer metrics from the trace, the
// broker counters and the process counters of the workload's main
// phases.
func (b *bench) layerMetrics() map[string]metric {
	st := b.tr.summary()
	for name, x := range b.probeTr.summary() {
		st[name] = st[name].add(x)
	}
	// per returns the mean duration of one span of name, in ns, ÷ div.
	per := func(name string, div float64) float64 {
		x := st[name]
		if x.Count == 0 {
			return 0
		}
		return float64(x.TotalNs) / float64(x.Count) / div
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m, pr, bc := b.main, b.probed, b.brokers
	msgs := float64(m.cpuMsgs)
	overhead := 0.0
	if u := median(m.untracedRates); u > 0 {
		overhead = 100 * (1 - median(m.tracedRates)/u)
	}
	spans := b.tr.len() + b.probeTr.len()
	return map[string]metric{
		"core.enq_batch_ns":        {per("ffq.SPMC.EnqueueBatch", batch), "ns"},
		"core.deq_batch_ns":        {per("ffq.SPMC.DequeueBatch", batch), "ns"},
		"core.gaps_per_mmsg":       {1e6 * ratio(pr.gaps, pr.gapMsgs), "count"},
		"core.handoff_msgs_per_s":  {pr.extra["handoff_msgs_per_s"], "1/s"},
		"core.singles_msgs_per_s":  {pr.extra["singles_msgs_per_s"], "1/s"},
		"core.lapped_msgs_per_s":   {pr.extra["lapped_msgs_per_s"], "1/s"},
		"wire.encode_ns_per_msg":   {per("wire.PutProduce", batch), "ns"},
		"wire.decode_ns_per_msg":   {per("wire.Decode", batch), "ns"},
		"wal.append_us_per_batch":  {per("wal.Append", 1e3), "us"},
		"wal.read_ns_per_msg":      {float64(st["wal.Reader.Next"].TotalNs) / pr.extra["wal_read_msgs"], "ns"},
		"wal.open_s":               {per("wal.Open", 1e9), "s"},
		"broker.ingress_batch":     {ratio(bc.msgsIn, bc.produceFrames), "count"},
		"broker.egress_batch":      {ratio(bc.msgsOut, bc.deliverFrames), "count"},
		"broker.acks_per_produce":  {ratio(bc.acks, bc.produceFrames), "count"},
		"client.publish_wait_frac": {b.pubWait.in.Seconds() / b.pubWait.all.Seconds(), "frac"},
		"client.recv_wait_frac":    {b.recvWait.in.Seconds() / b.recvWait.all.Seconds(), "frac"},
		"client.ping_us":           {per("client.Ping", 1e3), "us"},
		"proc.cpu_us_per_msg":      {median(m.cpuPerMsg), "us"},
		"proc.allocs_per_msg":      {float64(m.proc.mallocs) / msgs, "count"},
		"proc.bytes_per_msg":       {float64(m.proc.bytes) / msgs, "B"},
		"proc.gc_per_mmsg":         {1e6 * float64(m.proc.gcs) / msgs, "count"},
		"proc.syscalls_per_msg":    {float64(m.proc.syscalls) / msgs, "count"},
		"lat_p99_us":               {quantile(m.lat, 0.99), "us"},
		"lat_samples":              {float64(len(m.lat)), "count"},
		"trace.overhead_pct":       {overhead, "%"},
		"trace.spans":              {float64(spans), "count"},
	}
}
