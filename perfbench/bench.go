package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ffq/internal/broker"
)

// payloadSize is the size of every message the workloads send:
// sequence number, stamp, and bytes drawn from the seed.
const payloadSize = 64

// bench is one process's run: its settings, the payload tail drawn
// from the seed, the tracer (nil when untraced) and the sinks the
// workload and the layer probe record into.
type bench struct {
	cfg    config
	start  time.Time
	tail   []byte
	data   string
	dataFS string
	// tr records the workload's spans and probeTr the layer probe's
	// (both nil when untraced), so the probe always has room.
	tr, probeTr *tracer

	main, probed *sink
	// brokers sums Metrics() over every broker the run stopped;
	// pubWait and recvWait sum the load goroutines' wait clocks.
	brokers           brokerCounts
	pubWait, recvWait waitClock
}

func newBench(cfg config, dataRoot string) *bench {
	b := &bench{
		cfg:    cfg,
		start:  time.Now(),
		data:   dataRoot,
		dataFS: fsType(dataRoot),
		main:   &sink{extra: map[string]float64{}},
		probed: &sink{extra: map[string]float64{}},
	}
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0x9e3779b97f4a7c15))
	b.tail = make([]byte, payloadSize-16)
	for i := range b.tail {
		b.tail[i] = byte(rng.Uint32())
	}
	if cfg.trace {
		b.tr = newTracer(b.start)
		b.probeTr = newTracer(b.start)
	}
	return b
}

// n scales a per-session message count; tests run with a small scale.
func (b *bench) n(count int) int {
	return max(64, int(float64(count)*b.cfg.scale)/64*64)
}

// sessions runs fn for session 0, 1, ... until the run's duration has
// passed and at least `least` sessions ran, and records each session's
// peak resident set and CPU time per message of its main phases.
// Under tracing, odd sessions are traced and even ones are not, so one
// run yields both sides of the tracing overhead; once the tracer is
// half full, later sessions run untraced.
func (b *bench) sessions(s *sink, least int, fn func(i int, tr *tracer) error) error {
	for i := 0; i < least || time.Since(b.start) < b.cfg.dur; i++ {
		var tr *tracer
		if i%2 == 1 && b.tr.hasRoom() {
			tr = b.tr
		}
		resetPeakRSS()
		cpu, msgs := s.proc.cpu, s.cpuMsgs
		if err := fn(i, tr); err != nil {
			return fmt.Errorf("session %d: %w", i, err)
		}
		s.rss = append(s.rss, peakRSSMB())
		s.cpuPerMsg = append(s.cpuPerMsg, (s.proc.cpu-cpu).Seconds()*1e6/float64(s.cpuMsgs-msgs))
	}
	return nil
}

// sink collects one workload's samples. Only the workload's own
// goroutine touches it.
type sink struct {
	attempted, failed int64
	// setups are set-up times in seconds, rates the throughput
	// samples in messages per second (one per session), lat the
	// latency samples in µs (per workload, see METRICS.md) and rtt
	// the report-only single-message ACK round trips in µs.
	setups, rates, lat, rtt []float64
	// rss and cpuPerMsg hold each session's peak resident set in MB
	// and process CPU per message of its main phases in µs.
	rss, cpuPerMsg []float64
	// tracedRates/untracedRates hold session throughputs split by
	// tracing, for the tracing overhead.
	tracedRates, untracedRates []float64
	// proc accumulates the process counters over the main phases and
	// cpuMsgs the messages those phases moved.
	proc    procCounts
	cpuMsgs int64
	// gaps and gapMsgs accumulate SPMC Gaps() and the values moved
	// through those queues.
	gaps, gapMsgs int64
	// extra holds report-only figures, printed but never gated.
	extra map[string]float64
}

// rate records one session's throughput as a throughput sample and on
// the right side of the tracing split.
func (s *sink) rate(v float64, traced bool) {
	s.rates = append(s.rates, v)
	if traced {
		s.tracedRates = append(s.tracedRates, v)
	} else {
		s.untracedRates = append(s.untracedRates, v)
	}
}

// mainPhase measures process CPU and runtime counters across fn,
// which moves msgs messages.
func (s *sink) mainPhase(msgs int64, fn func() error) error {
	before := readProc()
	err := fn()
	s.proc.add(readProc().sub(before))
	s.cpuMsgs += msgs
	return err
}

// ---- payloads and the delivery check ----

// fill writes message seq into buf: the sequence number, a stamp in
// nanoseconds since the run started, and the seed's bytes.
func (b *bench) fill(buf []byte, seq uint64, stamp int64) {
	binary.LittleEndian.PutUint64(buf[0:], seq)
	binary.LittleEndian.PutUint64(buf[8:], uint64(stamp))
	copy(buf[16:], b.tail)
}

// stamp reads the payload's stamp.
func stamp(msg []byte) int64 { return int64(binary.LittleEndian.Uint64(msg[8:])) }

// checker verifies exactly-once FIFO delivery: the sequence numbers
// it observes must be 0, 1, 2, ... with intact payloads. bad counts
// messages out of place (duplicated, reordered, corrupt); finish adds
// the ones that never arrived.
type checker struct {
	tail     []byte
	next     uint64
	received uint64
	bad      int64
}

// observe checks one sequence number.
func (c *checker) observe(seq uint64) {
	c.received++
	if seq == c.next {
		c.next++
		return
	}
	c.bad++
	if seq > c.next {
		c.next = seq + 1
	}
}

// message checks one payload and returns its sequence number.
func (c *checker) message(msg []byte) uint64 {
	if len(msg) != payloadSize || !bytes.Equal(msg[16:], c.tail) {
		c.received++
		c.bad++
		return ^uint64(0)
	}
	seq := binary.LittleEndian.Uint64(msg)
	c.observe(seq)
	return seq
}

// finish returns the failures once want messages were sent.
func (c *checker) finish(want uint64) int64 {
	failed := c.bad
	if ok := c.received - uint64(c.bad); ok < want {
		failed += int64(want - ok)
	}
	return failed
}

// ---- broker plumbing ----

// brokerEnv is one in-process broker serving TCP loopback.
type brokerEnv struct {
	b    *broker.Broker
	addr string
	done chan error
}

func startBroker(opts broker.Options) (*brokerEnv, error) {
	b, err := broker.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &brokerEnv{b: b, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { e.done <- b.Serve(ln) }()
	return e, nil
}

// stop drains the broker, waits for its accept loop and adds its
// counters to the run's totals.
func (b *bench) stop(e *brokerEnv) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.b.Shutdown(ctx)
	if serr := <-e.done; err == nil {
		err = serr
	}
	b.brokers.add(e.b.Metrics())
	return err
}

// brokerCounts is a plain copy of the broker counters the per-layer
// metrics use.
type brokerCounts struct {
	msgsIn, msgsOut, produceFrames, deliverFrames, acks int64
}

func (c *brokerCounts) add(m *broker.Metrics) {
	c.msgsIn += m.MsgsIn.Load()
	c.msgsOut += m.MsgsOut.Load()
	c.produceFrames += m.ProduceFrames.Load()
	c.deliverFrames += m.DeliverFrames.Load()
	c.acks += m.Acks.Load()
}

var errTimeout = errors.New("timed out waiting for delivery")

// ---- process counters ----

// procCounts holds process-wide counters: CPU time, heap allocations,
// GC cycles and read/write syscalls.
type procCounts struct {
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	gcs      uint64
	syscalls uint64
}

func (p procCounts) sub(q procCounts) procCounts {
	return procCounts{
		cpu:      p.cpu - q.cpu,
		mallocs:  p.mallocs - q.mallocs,
		bytes:    p.bytes - q.bytes,
		gcs:      p.gcs - q.gcs,
		syscalls: p.syscalls - q.syscalls,
	}
}

func (p *procCounts) add(d procCounts) {
	p.cpu += d.cpu
	p.mallocs += d.mallocs
	p.bytes += d.bytes
	p.gcs += d.gcs
	p.syscalls += d.syscalls
}

func readProc() procCounts {
	var p procCounts
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.mallocs, p.bytes, p.gcs = ms.Mallocs, ms.TotalAlloc, uint64(ms.NumGC)
	p.syscalls = procIOSyscalls()
	return p
}

// procIOSyscalls returns syscr+syscw from /proc/self/io (0 where the
// file is unreadable).
func procIOSyscalls() uint64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0
	}
	defer f.Close()
	var n uint64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && (k == "syscr" || k == "syscw") {
			x, _ := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			n += x
		}
	}
	return n
}

// resetPeakRSS resets the kernel's peak resident set of this process
// to its current size, so a session's peak is its own. Where that is
// not possible the peak stays the process lifetime's.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x9123683E:
		return "btrfs"
	case 0x58465342:
		return "xfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
