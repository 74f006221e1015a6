package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func names(xs []struct{ Name string }) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x.Name)
	}
	sort.Strings(out)
	return out
}

// fromSpans names the per-layer metrics computed from spans; each
// must be above 0 in every traced run.
var fromSpans = map[string]bool{
	"core.enq_batch_ns": true, "core.deq_batch_ns": true,
	"wire.encode_ns_per_msg": true, "wire.decode_ns_per_msg": true,
	"wal.append_us_per_batch": true, "wal.read_ns_per_msg": true, "wal.open_s": true,
	"client.ping_us": true, "trace.spans": true,
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at a tiny
// scale, untraced and traced, and checks that it delivers every
// message and prints exactly the metrics BENCHMARK.json names, after
// a fingerprint line.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	s := readSpec(t)
	for _, w := range names(s.Workloads) {
		if _, ok := workloads[w]; !ok {
			t.Fatalf("BENCHMARK.json names workload %q the benchmark lacks", w)
		}
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			res, err := runWorkload(&out, config{
				workload: w, seed: 7, dur: time.Millisecond, scale: 0.01, trace: traced, root: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := names(s.EndToEnd)
			if traced {
				want = names(s.PerLayer)
			}
			var got []string
			for k, m := range res.Metrics {
				got = append(got, k)
				if (!traced || fromSpans[k]) && !(m.Value > 0) {
					t.Errorf("%s trace=%v: metric %s = %v, want > 0", w, traced, k, m.Value)
				}
				if m.Unit == "" {
					t.Errorf("%s: metric %s has no unit", w, k)
				}
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Fatalf("%s trace=%v: metrics %v, want %v", w, traced, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s trace=%v: metrics %v, want %v", w, traced, got, want)
				}
			}
			var report struct {
				Fingerprint map[string]any `json:"fingerprint"`
			}
			line, _ := bufio.NewReader(&out).ReadBytes('\n')
			if err := json.Unmarshal(line, &report); err != nil {
				t.Fatalf("%s: report line %q: %v", w, line, err)
			}
			for _, k := range []string{"nproc", "gomaxprocs", "go", "clocksource", "seed", "datadir_fs", "wal_fsync"} {
				if _, ok := report.Fingerprint[k]; !ok {
					t.Errorf("%s: fingerprint lacks %s", w, k)
				}
			}
		}
	}
}

// TestCheckerRejectsDropDuplicateReorder injects each delivery error
// into an otherwise clean stream of payloads.
func TestCheckerRejectsDropDuplicateReorder(t *testing.T) {
	b := newBench(config{seed: 3, scale: 1}, t.TempDir())
	for _, c := range []struct {
		name string
		seqs []uint64
		ok   bool
	}{
		{"clean", []uint64{0, 1, 2, 3, 4}, true},
		{"drop", []uint64{0, 1, 3, 4}, false},
		{"drop-last", []uint64{0, 1, 2, 3}, false},
		{"duplicate", []uint64{0, 1, 1, 2, 3, 4}, false},
		{"reorder", []uint64{0, 2, 1, 3, 4}, false},
	} {
		chk := checker{tail: b.tail}
		buf := make([]byte, payloadSize)
		for _, seq := range c.seqs {
			b.fill(buf, seq, 0)
			chk.message(buf)
		}
		if failed := chk.finish(5); (failed == 0) != c.ok {
			t.Errorf("%s: %d failures, want ok=%v", c.name, failed, c.ok)
		}
	}
	chk := checker{tail: b.tail}
	buf := make([]byte, payloadSize)
	b.fill(buf, 0, 0)
	buf[payloadSize-1] ^= 1
	chk.message(buf)
	if chk.finish(1) == 0 {
		t.Error("corrupt payload accepted")
	}
}

// TestTracerCountsDrops fills a tracer: spans past its capacity are
// counted as lost, and no session is traced once it is half full.
func TestTracerCountsDrops(t *testing.T) {
	tr := newTracer(time.Now())
	for i := 0; i < maxSpans/2; i++ {
		tr.leaf("x", -1, 0, time.Now())
	}
	if tr.hasRoom() {
		t.Error("half-full tracer has room for a session")
	}
	for i := maxSpans / 2; i <= maxSpans; i++ {
		tr.leaf("x", -1, 0, time.Now())
	}
	if tr.len() != maxSpans || tr.lost() != 1 {
		t.Errorf("kept %d spans, lost %d; want %d and 1", tr.len(), tr.lost(), maxSpans)
	}
}
