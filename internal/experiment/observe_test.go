package experiment

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/topo"
	"repro/internal/units"
)

// marshalScience serializes a result with wall_ns, the one field that
// measures the machine rather than the simulation, zeroed.
func marshalScience(t *testing.T, res Result) []byte {
	t.Helper()
	res.Wall = 0
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestObserversTransparent: attaching the interval report and the flow logs
// must not move a single result byte — Events included, since the engine
// keeps observer ticks out of the count — on the dumbbell with the fairness
// observatory armed, and on a graph topology, which uses the per-class
// interval format.
func TestObserversTransparent(t *testing.T) {
	pl := topo.ParkingLotSpec(3)
	for _, tc := range []struct {
		name  string
		cfg   Config
		lines int    // interval lines expected
		want  string // substring of every interval line
		logs  int    // flow logs expected
	}{
		{"dumbbell-fairness", Config{
			Pairing:        Pairing{CCA1: cca.BBRv1, CCA2: cca.Cubic},
			AQM:            aqm.KindFIFO,
			QueueBDP:       2,
			Bottleneck:     50 * units.MegabitPerSec,
			Duration:       2 * time.Second,
			FlowsPerSender: 2,
			SampleInterval: 250 * time.Millisecond,
			Fairness:       true,
			FairnessWindow: 50 * time.Millisecond,
		}, 8, "| sender2(cubic) ", 4},
		{"parking-lot-3", Config{
			Pairing:    Pairing{CCA1: cca.Cubic, CCA2: cca.Cubic},
			AQM:        aqm.KindFIFO,
			QueueBDP:   2,
			Bottleneck: 100 * units.MegabitPerSec,
			Duration:   2 * time.Second,
			Topology:   &pl,
		}, 2, " Mbps | b1 queue ", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			dir := t.TempDir()
			observed, err := Run(tc.cfg, IntervalReport(&buf), FlowLogs(dir))
			if err != nil {
				t.Fatal(err)
			}
			if a, b := marshalScience(t, plain), marshalScience(t, observed); !bytes.Equal(a, b) {
				t.Fatalf("observers changed the result:\nplain:    %s\nobserved: %s", a, b)
			}
			if tc.cfg.Fairness && plain.Fairness == nil {
				t.Fatal("fairness report missing")
			}
			lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
			if len(lines) != tc.lines {
				t.Fatalf("%d interval lines, want %d:\n%s", len(lines), tc.lines, buf.String())
			}
			for _, l := range lines {
				if !strings.Contains(l, tc.want) {
					t.Fatalf("interval line %q lacks %q", l, tc.want)
				}
			}
			logs, err := filepath.Glob(filepath.Join(dir, "*.json"))
			if err != nil || len(logs) != tc.logs {
				t.Fatalf("want %d flow logs, got %v (%v)", tc.logs, logs, err)
			}
		})
	}
}

// TestIntervalReportDumbbell pins the dumbbell line shape: one line per
// SampleInterval naming both senders' CCAs.
func TestIntervalReportDumbbell(t *testing.T) {
	var buf bytes.Buffer
	res, err := Run(Config{
		Pairing:    Pairing{CCA1: cca.Reno, CCA2: cca.Cubic},
		AQM:        aqm.KindFIFO,
		QueueBDP:   2,
		Bottleneck: 100 * units.MegabitPerSec,
		Duration:   5 * time.Second,
	}, IntervalReport(&buf))
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "\n") != 5 {
		t.Fatalf("want 5 interval lines over 5s:\n%s", out)
	}
	if !strings.HasPrefix(out, "[   1.00s] sender1(reno ) ") ||
		!strings.Contains(out, "| sender2(cubic) ") || !strings.Contains(out, " pkts\n") {
		t.Fatalf("interval format:\n%s", out)
	}
	if res.Events == 0 {
		t.Fatal("no events recorded")
	}
}

// TestFlowLogsFiles: one parseable iperf3-style log per long-running flow,
// whose intervals run back to back from the flow's drawn start offset, each
// rate its bytes over its seconds, and whose end summary the intervals sum
// to.
func TestFlowLogsFiles(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Pairing:        Pairing{CCA1: cca.BBRv2, CCA2: cca.Cubic},
		AQM:            aqm.KindFQCoDel,
		QueueBDP:       2,
		Bottleneck:     100 * units.MegabitPerSec,
		Duration:       5 * time.Second,
		FlowsPerSender: 2,
	}
	if _, err := Run(cfg, FlowLogs(dir)); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 4 {
		t.Fatalf("want 4 flow logs, got %v (%v)", files, err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		var l iperfLog
		if err := json.Unmarshal(data, &l); err != nil {
			t.Fatalf("%s not parseable: %v", name, err)
		}
		if len(l.Intervals) != 5 {
			t.Fatalf("%s has %d intervals, want 5", name, len(l.Intervals))
		}
		if l.Start.Congestion != "bbr2" && l.Start.Congestion != "cubic" {
			t.Fatalf("%s CCA: %q", name, l.Start.Congestion)
		}
		if ts := l.Start.TestStart; ts <= 0 || ts >= 0.1 || l.Intervals[0].Start != ts {
			t.Fatalf("%s: test_start %v, first interval from %v; want one start in (0, 0.1s)",
				name, ts, l.Intervals[0].Start)
		}
		var got int64
		var rtx uint64
		for i, iv := range l.Intervals {
			if i > 0 && iv.Start != l.Intervals[i-1].End || iv.Seconds != iv.End-iv.Start {
				t.Fatalf("%s interval %d: %+v does not follow the last one", name, i, iv)
			}
			if iv.BitsPerSecond != float64(iv.Bytes)*8/iv.Seconds {
				t.Fatalf("%s interval %d: %v bps for %d bytes over %vs", name, i, iv.BitsPerSecond, iv.Bytes, iv.Seconds)
			}
			got += iv.Bytes
			rtx += iv.Retransmits
		}
		sent, rcvd := l.End.SumSent, l.End.SumReceived
		if rcvd.Bytes <= 0 || got != rcvd.Bytes || rtx != sent.Retransmits {
			t.Fatalf("%s: intervals sum to %d bytes, %d retransmits; end summary %+v", name, got, rtx, l.End)
		}
		if rcvd.Seconds != 5 || rcvd.BitsPerSecond != float64(rcvd.Bytes)*8/5 || sent.BitsPerSecond != float64(sent.Bytes)*8/5 {
			t.Fatalf("%s: end summary rates %+v", name, l.End)
		}
	}
}

// TestFlowLogIntervals pins one flow's interval arithmetic: each interval
// is the delta of the cumulative counters since the last, and the end
// summary is taken over the run's seconds.
func TestFlowLogIntervals(t *testing.T) {
	var fl flowLog
	fl.observe(1, 1_000_000, 0, 100_000, 62*time.Millisecond)
	fl.observe(2, 2_500_000, 3, 120_000, 63*time.Millisecond)
	fl.finish(2, 2_600_000, 2_500_000, 3)

	want := []iperfInterval{
		{Start: 0, End: 1, Seconds: 1, Bytes: 1_000_000, BitsPerSecond: 8e6, SndCwnd: 100_000, RTT: 62000},
		{Start: 1, End: 2, Seconds: 1, Bytes: 1_500_000, BitsPerSecond: 12e6, Retransmits: 3, SndCwnd: 120_000, RTT: 63000},
	}
	if len(fl.log.Intervals) != len(want) {
		t.Fatalf("intervals = %+v, want %+v", fl.log.Intervals, want)
	}
	for i := range want {
		if fl.log.Intervals[i] != want[i] {
			t.Fatalf("interval %d = %+v, want %+v", i, fl.log.Intervals[i], want[i])
		}
	}
	end := fl.log.End
	if end.SumSent.Bytes != 2_600_000 || end.SumSent.Retransmits != 3 || end.SumSent.BitsPerSecond != 2_600_000*8/2 ||
		end.SumReceived.Bytes != 2_500_000 || end.SumReceived.BitsPerSecond != 1e7 || end.SumReceived.Seconds != 2 {
		t.Fatalf("end summary = %+v", end)
	}
}

// TestFlowLogZeroDurationIgnored: a sample at the same time as the last
// closes no interval.
func TestFlowLogZeroDurationIgnored(t *testing.T) {
	fl := flowLog{lastAt: 0}
	fl.observe(1, 100, 0, 0, 0)
	fl.observe(1, 200, 0, 0, 0) // same timestamp: dropped
	fl.observe(2, 300, 0, 0, 0)
	if len(fl.log.Intervals) != 2 {
		t.Fatalf("intervals = %+v, want 2", fl.log.Intervals)
	}
	if iv := fl.log.Intervals[1]; iv.Start != 1 || iv.Bytes != 200 {
		t.Fatalf("interval after the dropped sample = %+v, want start 1 and 200 bytes", iv)
	}
}

// TestFlowLogStartOffset: a flow that starts late counts its first
// interval from its start offset, not from zero.
func TestFlowLogStartOffset(t *testing.T) {
	fl := flowLog{lastAt: 0.5}
	fl.log.Start.TestStart = 0.5
	fl.observe(1.5, 1000, 0, 0, 0)
	if len(fl.log.Intervals) != 1 {
		t.Fatalf("intervals = %+v, want 1", fl.log.Intervals)
	}
	if iv := fl.log.Intervals[0]; iv.Start != 0.5 || iv.Seconds != 1 || iv.BitsPerSecond != 8000 {
		t.Fatalf("offset interval = %+v", iv)
	}
}

// TestFlowLogsGolden pins the bytes of every log one run writes, so the
// files the paper's iperf3 pipelines read cannot drift.
func TestFlowLogsGolden(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Pairing:        Pairing{CCA1: cca.BBRv2, CCA2: cca.Cubic},
		AQM:            aqm.KindFQCoDel,
		QueueBDP:       2,
		Bottleneck:     100 * units.MegabitPerSec,
		Duration:       5 * time.Second,
		FlowsPerSender: 1,
	}
	if _, err := Run(cfg, FlowLogs(dir)); err != nil {
		t.Fatal(err)
	}
	golden, err := filepath.Glob("testdata/flowlogs/*.json")
	if err != nil || len(golden) != 2 {
		t.Fatalf("want 2 golden flow logs, got %v (%v)", golden, err)
	}
	for _, g := range golden {
		want, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, filepath.Base(g)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs from its golden:\n%s", filepath.Base(g), got)
		}
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != len(golden) {
		t.Fatalf("run wrote %d files, golden holds %d", len(files), len(golden))
	}
}

// TestRunBadCCA: an unknown controller fails the run before any observer
// attaches.
func TestRunBadCCA(t *testing.T) {
	_, err := Run(Config{
		Pairing:    Pairing{CCA1: "bogus", CCA2: cca.Cubic},
		Bottleneck: units.GigabitPerSec,
		Duration:   time.Second,
	}, IntervalReport(io.Discard))
	if err == nil {
		t.Fatal("want error for unknown CCA")
	}
}

// TestRunHeadToHeadAtPaperDefaults: setting only the grid axes runs the
// paper's setup (62 ms RTT, the bandwidth-scaled duration) and fills a
// 100 Mbps bottleneck with two CUBIC senders.
func TestRunHeadToHeadAtPaperDefaults(t *testing.T) {
	res, err := Run(Config{
		Pairing:    Pairing{CCA1: cca.Cubic, CCA2: cca.Cubic},
		AQM:        aqm.KindFIFO,
		QueueBDP:   2,
		Bottleneck: 100 * units.MegabitPerSec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Pairing.CCA1 != cca.Cubic || res.Config.RTT != 62*time.Millisecond || res.SimSeconds != 30 {
		t.Fatalf("paper defaults not applied: %+v, %gs", res.Config, res.SimSeconds)
	}
	if res.Utilization < 0.7 {
		t.Fatalf("utilization %.3f", res.Utilization)
	}
}

// TestWatchdogCountsOnlyScienceEvents: a budget of exactly one event more
// than a plain run executes lets that run complete, and it must let the
// same run complete with observers ticking — same Events, same science —
// because observer ticks never consume the budget.
func TestWatchdogCountsOnlyScienceEvents(t *testing.T) {
	cfg := Config{
		Pairing:    Pairing{CCA1: cca.Cubic, CCA2: cca.Cubic},
		AQM:        aqm.KindFIFO,
		QueueBDP:   2,
		Bottleneck: 50 * units.MegabitPerSec,
		Duration:   time.Second,
	}
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxEvents = ref.Events + 1
	plain, err := Run(cfg)
	if err != nil {
		t.Fatalf("plain run with budget %d: %v", cfg.MaxEvents, err)
	}
	cfg.Fairness = true
	cfg.FairnessWindow = 10 * time.Millisecond
	armed, err := Run(cfg, IntervalReport(io.Discard))
	if err != nil {
		t.Fatalf("observed run with budget %d: %v", cfg.MaxEvents, err)
	}
	if plain.Events != ref.Events || armed.Events != ref.Events {
		t.Fatalf("events: reference %d, budgeted plain %d, budgeted observed %d",
			ref.Events, plain.Events, armed.Events)
	}
	armed.Fairness = nil
	if a, b := marshalScience(t, plain), marshalScience(t, armed); !bytes.Equal(a, b) {
		t.Fatalf("observation changed the budgeted result:\nplain:    %s\nobserved: %s", a, b)
	}
}
