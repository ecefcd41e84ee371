//go:build !race

// Exact-count rails for three scenario families: the graph-built
// topologies, open-loop flow churn, and the fairness observatory. Each row
// pins the run's counts (events, delivered segments, fairness windows,
// opened flows), which move with any change to dispatch order or workload
// determinism, and holds an allocation budget per delivered segment: the
// rate the row measures when run alone (so one-time set-up allocations
// count), plus 0.05. Each run draws its packets from its own pool, so a
// row's rate no longer depends on which rows ran before it. Speed is the
// repo benchmark's job (bench/), not these rails'.
package repro

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/experiment"
	"repro/internal/flows"
	"repro/internal/topo"
	"repro/internal/units"
)

type railCase struct {
	name     string
	cfg      experiment.Config
	events   uint64
	segments int64   // delivered MSS-sized data segments, rounded
	windows  int     // fairness windows sampled (0 with the observatory off)
	opened   int     // open-loop flows opened (0 without a workload)
	allocs   float64 // budget: heap allocations per delivered segment
}

func runRails(t *testing.T, cases []railCase) {
	t.Helper()
	if testing.Short() {
		t.Skip("simulates 2 s of traffic per row; skipped in -short mode")
	}
	for _, rc := range cases {
		t.Run(rc.name, func(t *testing.T) {
			var res experiment.Result
			allocs := testing.AllocsPerRun(2, func() {
				var err error
				if res, err = experiment.Run(rc.cfg); err != nil {
					t.Fatal(err)
				}
			})
			// Goodput of the long-running flows plus the completed open-loop
			// payload, all forwarded through the bottleneck.
			var bytes float64
			if len(res.Groups) > 0 {
				for _, g := range res.Groups {
					bytes += g.Bps * rc.cfg.Duration.Seconds() / 8
				}
			} else {
				bytes = (res.SenderBps[0] + res.SenderBps[1]) * rc.cfg.Duration.Seconds() / 8
			}
			windows, opened := 0, 0
			if res.Fairness != nil {
				windows = res.Fairness.Windows
			}
			if res.FCT != nil {
				bytes += float64(res.FCT.Class("all").Bytes)
				opened = res.FCT.Opened
			}
			segments := bytes / 8900

			counts := "events %d, segments %d, windows %d, opened flows %d"
			got := fmt.Sprintf(counts, res.Events, int64(math.Round(segments)), windows, opened)
			if want := fmt.Sprintf(counts, rc.events, rc.segments, rc.windows, rc.opened); got != want {
				t.Errorf("counts drifted:\n got  %s\n want %s", got, want)
			}
			perSegment := allocs / segments
			t.Logf("%s; %.3f allocs per delivered segment (budget %.3f)", got, perSegment, rc.allocs)
			if perSegment > rc.allocs {
				t.Errorf("allocation regression: %.3f allocs per delivered segment > budget %.3f",
					perSegment, rc.allocs)
			}
		})
	}
}

// TestBenchTopoTrajectory: the dumbbell, a three-hop parking lot, and a
// short 25 Gbps dumbbell — the paper's top rate, where same-nanosecond event
// ties are commonest — with a 5 ms RTT so its flows leave slow start
// within 200 ms.
func TestBenchTopoTrajectory(t *testing.T) {
	pl := topo.ParkingLotSpec(3)
	parking := allocGuardConfig()
	parking.Topology = &pl
	fast := allocGuardConfig()
	fast.Bottleneck = 25 * units.GigabitPerSec
	fast.FlowsPerSender = 4
	fast.Duration = 200 * time.Millisecond
	fast.RTT = 5 * time.Millisecond
	fast.StartSpread = 10 * time.Millisecond
	runRails(t, []railCase{
		{name: "dumbbell", cfg: allocGuardConfig(), events: 19496, segments: 2547, allocs: 0.115},
		{name: "parking-lot-3", cfg: parking, events: 53751, segments: 7261, allocs: 0.101},
		{name: "dumbbell-25g", cfg: fast, events: 499218, segments: 61503, allocs: 0.057},
	})
}

// TestBenchFCTTrajectory: mice churning beside the elephants, and the solo
// baseline the harm matrix divides by (the same arrival schedule, no
// elephants).
func TestBenchFCTTrajectory(t *testing.T) {
	mice := &flows.Spec{Populations: []flows.Population{
		{Name: "mice", MeanArrival: 100 * time.Millisecond},
	}}
	competition := allocGuardConfig()
	competition.Flows = mice
	solo := competition
	solo.SoloFCT = true
	runRails(t, []railCase{
		{name: "mice-competition", cfg: competition, events: 20518, segments: 2472, opened: 23, allocs: 0.177},
		{name: "mice-solo", cfg: solo, events: 8007, segments: 1012, opened: 23, allocs: 0.248},
	})
}

// TestBenchObsTrajectory: the dumbbell plain and with the fairness
// observatory sampling at 10 ms. Observation is science-neutral, so both
// rows share every count but the window count.
func TestBenchObsTrajectory(t *testing.T) {
	armed := allocGuardConfig()
	armed.Fairness = true
	armed.FairnessWindow = 10 * time.Millisecond
	runRails(t, []railCase{
		{name: "dumbbell-plain", cfg: allocGuardConfig(), events: 19496, segments: 2547, allocs: 0.115},
		{name: "dumbbell-obs", cfg: armed, events: 19496, segments: 2547, windows: 200, allocs: 0.122},
	})
}

// TestBenchRecoveryTrajectory: two Reno flows per sender at 25 Gbps over a
// 20 ms RTT overshoot slow start into a 2×BDP FIFO around 0.5 s. The row
// drops and retransmits 45,346 segments, so it exercises recovery from a
// mass loss: loss marking, the retransmission queue and the receiver's
// holes.
func TestBenchRecoveryTrajectory(t *testing.T) {
	cfg := experiment.Config{
		Pairing:        experiment.Pairing{CCA1: cca.Reno, CCA2: cca.Reno},
		AQM:            aqm.KindFIFO,
		QueueBDP:       2,
		Bottleneck:     25 * units.GigabitPerSec,
		RTT:            20 * time.Millisecond,
		FlowsPerSender: 2,
		Duration:       1500 * time.Millisecond,
	}
	runRails(t, []railCase{
		{name: "recovery-25g", cfg: cfg, events: 3812997, segments: 456660, allocs: 0.051},
	})
}
