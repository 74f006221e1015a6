// Command perfbench is the repository's benchmark. It runs one named
// workload against the ffq library and an in-process ffqd broker,
// checks that every message arrived exactly once and in order, and
// prints one JSON object as the last line of its output:
//
//	go run . --workload stream --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, taken from spans the
// benchmark records around its own calls into each layer (see
// METRICS.md). Nothing inside the program is instrumented.
//
// Each workload repeats fixed-size sessions, each with its own
// set-up, until --seconds have passed, and reports medians over the
// sessions: one session can land on a bad goroutine placement on a
// 2-CPU host, the median of several cannot.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ffq/internal/wal"
)

// walSync is the WAL fsync policy of every WAL phase. Without fsync
// the durable workload and the WAL probe measure the WAL's CPU and
// syscall cost; a device flush on a virtio disk swung the ACK rate
// between 203K and 328K msgs/s from run to run.
const walSync = wal.SyncOff

// buildDir holds everything a run leaves behind: the data
// directories of the WAL phases and the trace files. It is relative
// to the working directory, the root of the checkout.
const buildDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: queue, stream, paced or durable")
	seed := flag.Int64("seed", 1, "seed of the generated payloads")
	seconds := flag.Float64("seconds", 10, "how long the workload measures")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload queue|stream|paced|durable, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	res, err := runWorkload(os.Stdout, config{
		workload: *workload,
		seed:     *seed,
		dur:      time.Duration(*seconds * float64(time.Second)),
		scale:    1,
		trace:    *trace == 1,
		root:     buildDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// config is one invocation's settings; tests shrink scale.
type config struct {
	workload string
	seed     int64
	dur      time.Duration
	scale    float64
	trace    bool
	root     string
}

// runWorkload runs one workload (and, traced, the layer probe), writes
// the host fingerprint and the report-only figures to w, and returns
// the result object. An error means the run could not be carried out
// at all; delivery errors are reported in the result.
func runWorkload(w io.Writer, cfg config) (result, error) {
	dataRoot := filepath.Join(cfg.root, fmt.Sprintf("perfbench-data-%d", os.Getpid()))
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dataRoot)
	b := newBench(cfg, dataRoot)
	if err := workloads[cfg.workload](b, b.main); err != nil {
		return result{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		if err := b.probe(); err != nil {
			return result{}, fmt.Errorf("layer probe: %w", err)
		}
	}
	res := result{
		Attempted: b.main.attempted + b.probed.attempted,
		Failed:    b.main.failed + b.probed.failed,
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if cfg.trace {
		// A dropped span would leave a per-layer metric short of its
		// samples, or at 0 when all of them were dropped.
		if n := b.tr.lost() + b.probeTr.lost(); n > 0 {
			return result{}, fmt.Errorf("trace buffer full: %d spans dropped", n)
		}
		res.Metrics = b.layerMetrics()
		dir := filepath.Join(cfg.root, "perfbench-trace")
		name := fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)
		if err := b.tr.writeFile(filepath.Join(dir, name+".jsonl")); err != nil {
			return result{}, err
		}
		if err := b.probeTr.writeFile(filepath.Join(dir, name+"-probe.jsonl")); err != nil {
			return result{}, err
		}
	} else {
		res.Metrics = b.endToEnd()
	}
	report := map[string]any{"fingerprint": b.fingerprint(), "workload": cfg.workload, "report_only": b.main.extra}
	if err := json.NewEncoder(w).Encode(report); err != nil {
		return result{}, err
	}
	return res, nil
}

// workloads maps each workload name to its session loop. Each records
// into the sink it is handed; the layer probe runs the same sessions
// into its own sink, so its figures never mix into the workload's.
var workloads = map[string]func(*bench, *sink) error{
	"queue":   (*bench).queue,
	"stream":  (*bench).stream,
	"paced":   (*bench).paced,
	"durable": (*bench).durable,
}

// endToEnd turns the workload's samples into the gated metrics.
func (b *bench) endToEnd() map[string]metric {
	s := b.main
	return map[string]metric{
		"setup_s":     {median(s.setups), "s"},
		"msgs_per_s":  {median(s.rates), "1/s"},
		"lat_p50_us":  {quantile(s.lat, 0.5), "us"},
		"rss_peak_mb": {median(s.rss), "MB"},
	}
}

// fingerprint describes the host a run's figures belong to; runs whose
// fingerprints differ (another CPU count, another data filesystem)
// are not comparable.
func (b *bench) fingerprint() map[string]any {
	cs, err := os.ReadFile("/sys/devices/system/clocksource/clocksource0/current_clocksource")
	clock := strings.TrimSpace(string(cs))
	if err != nil {
		clock = "unknown"
	}
	return map[string]any{
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"clocksource": clock,
		"seed":        b.cfg.seed,
		"seconds":     b.cfg.dur.Seconds(),
		"datadir_fs":  b.dataFS,
		"wal_fsync":   walSync.String(),
		"sessions":    len(b.main.rates),
	}
}

// median returns the middle of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
