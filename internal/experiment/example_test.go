package experiment_test

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/experiment"
	"repro/internal/units"
	"repro/internal/workload"
)

// A head-to-head run with a live per-second report on stdout and one
// iperf3-style JSON log per flow, written into a directory that is removed
// afterwards.
func ExampleRun() {
	dir, err := os.MkdirTemp("", "flowlogs")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(dir)
	cfg := experiment.Config{
		Pairing:        experiment.Pairing{CCA1: cca.BBRv2, CCA2: cca.Cubic},
		AQM:            aqm.KindFQCoDel,
		QueueBDP:       4,
		Bottleneck:     100 * units.MegabitPerSec,
		Duration:       3 * time.Second,
		FlowsPerSender: 5,
	}
	res, err := experiment.Run(cfg,
		experiment.IntervalReport(os.Stdout),
		experiment.FlowLogs(dir))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("BBRv2 %.0f Mbps, CUBIC %.0f Mbps, J=%.2f\n",
		res.SenderMbps(0), res.SenderMbps(1), res.Jain)
	// Output:
	// [   1.00s] sender1(bbr2 )     41.94 Mbps | sender2(cubic)     38.09 Mbps | queue     41 pkts
	// [   2.00s] sender1(bbr2 )     52.90 Mbps | sender2(cubic)     59.74 Mbps | queue      2 pkts
	// [   3.00s] sender1(bbr2 )     50.77 Mbps | sender2(cubic)     47.21 Mbps | queue      0 pkts
	// BBRv2 49 Mbps, CUBIC 48 Mbps, J=1.00
}

// quickstart runs the smallest useful experiment: one BBRv1 elephant flow
// against one CUBIC elephant flow across the 62 ms, 100 Mbps dumbbell with a
// 2×BDP FIFO bottleneck, for the default duration, and prints who got
// what: CUBIC takes 80 of the 100 Mbps. README's Quickstart block quotes
// this output.
func quickstart(w io.Writer) error {
	res, err := experiment.Run(experiment.Config{
		Pairing:    experiment.Pairing{CCA1: cca.BBRv1, CCA2: cca.Cubic},
		AQM:        aqm.KindFIFO,
		QueueBDP:   2,
		Bottleneck: 100 * units.MegabitPerSec,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "BBRv1 vs CUBIC over %v, FIFO, 2xBDP buffer, %.0fs:\n",
		res.Config.Bottleneck, res.SimSeconds)
	fmt.Fprintf(w, "  BBRv1: %8.1f Mbps\n", res.SenderMbps(0))
	fmt.Fprintf(w, "  CUBIC: %8.1f Mbps\n", res.SenderMbps(1))
	fmt.Fprintf(w, "  Jain fairness index: %.3f, link utilization: %.3f\n", res.Jain, res.Utilization)
	fmt.Fprintf(w, "  retransmissions: %d\n", res.TotalRetransmits)
	return nil
}

func ExampleRun_quickstart() {
	if err := quickstart(os.Stdout); err != nil {
		fmt.Println(err)
	}
	// Output:
	// BBRv1 vs CUBIC over 100Mbps, FIFO, 2xBDP buffer, 30s:
	//   BBRv1:     18.9 Mbps
	//   CUBIC:     79.8 Mbps
	//   Jain fairness index: 0.725, link utilization: 0.987
	//   retransmissions: 475
}

// TestREADMEQuickstart: README's Quickstart output block is exactly what
// ExampleRun_quickstart prints.
func TestREADMEQuickstart(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Quickstart\n")
	if ok {
		_, section, ok = strings.Cut(section, "```text\n")
	}
	if ok {
		section, _, ok = strings.Cut(section, "```")
	}
	if !ok {
		t.Fatal("README has no ```text block under ## Quickstart")
	}
	var got strings.Builder
	if err := quickstart(&got); err != nil {
		t.Fatal(err)
	}
	if section != got.String() {
		t.Errorf("README's Quickstart block drifted from ExampleRun_quickstart.\n--- README ---\n%s--- example ---\n%s",
			section, got.String())
	}
}

// Elephants: two facilities push many parallel bulk transfers (Table 2's
// iperf3 processes, capped at 8 flows per facility) through one shared
// FQ_CODEL bottleneck, with a per-second report and one iperf3-style JSON
// log per flow. The facilities split the link almost evenly. One log is
// read back the way an analysis pipeline would.
func ExampleRun_elephants() {
	bw := 1 * units.GigabitPerSec
	plan := workload.ScaledPlan(bw, 8)
	fmt.Printf("Facility A: BBRv2, %s\n", plan)
	fmt.Printf("Facility B: CUBIC, %s\n", plan)

	dir, err := os.MkdirTemp("", "elephants")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(dir)
	cfg := experiment.Config{
		Pairing:        experiment.Pairing{CCA1: cca.BBRv2, CCA2: cca.Cubic},
		AQM:            aqm.KindFQCoDel,
		QueueBDP:       2,
		Bottleneck:     bw,
		FlowsPerSender: plan.FlowsPerNode(),
		Duration:       3 * time.Second,
	}
	res, err := experiment.Run(cfg, experiment.IntervalReport(os.Stdout), experiment.FlowLogs(dir))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("Facility A (BBRv2, %d flows): %6.1f Mbps aggregate\n", res.Flows/2, res.SenderMbps(0))
	fmt.Printf("Facility B (CUBIC, %d flows): %6.1f Mbps aggregate\n", res.Flows/2, res.SenderMbps(1))
	fmt.Printf("fairness %.3f, utilization %.3f, retransmissions %d\n",
		res.Jain, res.Utilization, res.TotalRetransmits)

	data, err := os.ReadFile(filepath.Join(dir, res.Config.ID()+"_flow1.json"))
	if err != nil {
		fmt.Println(err)
		return
	}
	var flowLog struct { // the fields of an iperf3 --json log read here
		Title string `json:"title"`
		Start struct {
			Congestion string `json:"congestion"`
		} `json:"start"`
		Intervals []struct {
			BitsPerSecond float64 `json:"bits_per_second"`
		} `json:"intervals"`
	}
	if err := json.Unmarshal(data, &flowLog); err != nil {
		fmt.Println(err)
		return
	}
	sum := 0.0
	for _, iv := range flowLog.Intervals {
		sum += iv.BitsPerSecond
	}
	fmt.Printf("%s: %s, %d intervals, mean %.1f Mbps\n", flowLog.Title,
		flowLog.Start.Congestion, len(flowLog.Intervals), sum/float64(len(flowLog.Intervals))/1e6)
	// Output:
	// Facility A: BBRv2, 8 iperf3 process(es)/node, 1 stream(s) each
	// Facility B: CUBIC, 8 iperf3 process(es)/node, 1 stream(s) each
	// [   1.00s] sender1(bbr2 )    318.98 Mbps | sender2(cubic)    297.54 Mbps | queue    370 pkts
	// [   2.00s] sender1(bbr2 )    603.56 Mbps | sender2(cubic)    564.26 Mbps | queue     16 pkts
	// [   3.00s] sender1(bbr2 )    501.03 Mbps | sender2(cubic)    474.48 Mbps | queue     48 pkts
	// Facility A (BBRv2, 8 flows):  474.5 Mbps aggregate
	// Facility B (CUBIC, 8 flows):  445.4 Mbps aggregate
	// fairness 0.999, utilization 0.920, retransmissions 925
	// bbr2-vs-cubic_fq_codel_2bdp_1Gbps_seed1/flow1: bbr2, 3 intervals, mean 58.2 Mbps
}

// AQM showdown: the same BBRv1-vs-CUBIC contest under each queue
// discipline at the bottleneck. CUBIC leads under FIFO at 4×BDP, RED's
// early drops let BBRv1 take 79 of the 100 Mbps (the paper's §5.2), and
// FQ_CODEL splits the link evenly.
func ExampleRun_aqmShowdown() {
	fmt.Printf("%-9s %7s %7s %6s %6s %6s\n", "AQM", "BBRv1", "CUBIC", "Jain", "util", "rtx")
	for _, kind := range aqm.Kinds() {
		res, err := experiment.Run(experiment.Config{
			Pairing:    experiment.Pairing{CCA1: cca.BBRv1, CCA2: cca.Cubic},
			AQM:        kind,
			QueueBDP:   4,
			Bottleneck: 100 * units.MegabitPerSec,
			Duration:   10 * time.Second,
		})
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%-9s %7.1f %7.1f %6.3f %6.3f %6d\n", kind,
			res.SenderMbps(0), res.SenderMbps(1), res.Jain, res.Utilization, res.TotalRetransmits)
	}
	// Output:
	// AQM         BBRv1   CUBIC   Jain   util    rtx
	// fifo         39.4    58.0  0.965  0.974    937
	// red          78.9    17.7  0.714  0.966   1049
	// fq_codel     49.9    45.9  0.998  0.958    506
}

// Path loss: the paper's future-work scenario. Each CCA competes with
// itself while the path drops packets at random, independent of
// congestion; the table gives both senders' total throughput in Mbps.
// At p = 0.01 % no CCA moves by more than 0.1 Mbps. At p = 1 % the
// loss-based CCAs (CUBIC, H-TCP, Reno) fall to about half the link while
// BBRv1 loses 2 %. BBRv2 loses 5 % at p = 1 %, below its 2 % loss
// threshold, so it does not ignore loss under that threshold.
func ExampleRun_pathLoss() {
	lossRates := []float64{0, 0.0001, 0.001, 0.01}
	fmt.Printf("%-6s", "CCA")
	for _, p := range lossRates {
		fmt.Printf(" %8s", fmt.Sprintf("p=%g", p))
	}
	fmt.Println()
	for _, name := range cca.Names() {
		fmt.Printf("%-6s", name)
		for _, p := range lossRates {
			res, err := experiment.Run(experiment.Config{
				Pairing:    experiment.Pairing{CCA1: name, CCA2: name},
				AQM:        aqm.KindFIFO,
				QueueBDP:   2,
				Bottleneck: 100 * units.MegabitPerSec,
				Duration:   5 * time.Second,
				PathLoss:   p,
			})
			if err != nil {
				fmt.Println(err)
				return
			}
			fmt.Printf(" %8.1f", (res.SenderBps[0]+res.SenderBps[1])/1e6)
		}
		fmt.Println()
	}
	// Output:
	// CCA         p=0 p=0.0001  p=0.001   p=0.01
	// bbr1       93.6     93.6     92.5     91.8
	// bbr2       95.2     95.3     95.2     90.8
	// cubic      95.9     95.9     95.5     53.2
	// htcp       95.8     95.7     89.4     53.4
	// reno       95.9     95.8     92.2     46.4
}

// RTT: the paper fixed the RTT at 62 ms and left RTT variation to future
// work. The same BBRv1-vs-CUBIC contest across round-trip times, with the
// 2×BDP buffer scaling with each RTT. The balance is not monotone in RTT:
// BBRv1 leads at 10 and 124 ms, CUBIC at 31 and 62 ms.
func ExampleRun_rtt() {
	fmt.Printf("%-6s %7s %7s %6s %5s\n", "RTT", "BBRv1", "CUBIC", "Jain", "rtx")
	for _, rtt := range []time.Duration{
		10 * time.Millisecond,
		31 * time.Millisecond,
		62 * time.Millisecond, // the paper's Clemson–TACC path
		124 * time.Millisecond,
	} {
		res, err := experiment.Run(experiment.Config{
			Pairing:    experiment.Pairing{CCA1: cca.BBRv1, CCA2: cca.Cubic},
			AQM:        aqm.KindFIFO,
			QueueBDP:   2,
			Bottleneck: 100 * units.MegabitPerSec,
			RTT:        rtt,
			Duration:   15 * time.Second,
		})
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%-6v %7.1f %7.1f %6.3f %5d\n", rtt,
			res.SenderMbps(0), res.SenderMbps(1), res.Jain, res.TotalRetransmits)
	}
	// Output:
	// RTT      BBRv1   CUBIC   Jain   rtx
	// 10ms      66.0    32.6  0.897   555
	// 31ms      21.7    77.0  0.761   376
	// 62ms      34.3    63.8  0.917   468
	// 124ms     52.7    43.6  0.991   790
}

// One panel of the paper's Figure 2: BBRv1 against CUBIC under FIFO as the
// buffer grows from 0.5 to 16 BDP, and the equilibrium point where CUBIC
// first overtakes BBRv1 (§5.1). BBRv1 leads below 2×BDP and CUBIC from
// 2×BDP on, the equilibrium the paper measured at 100 Mbps.
func ExampleSummary_EquilibriumBDP() {
	bw := 100 * units.MegabitPerSec
	pairing := experiment.Pairing{CCA1: cca.BBRv1, CCA2: cca.Cubic}
	var cfgs []experiment.Config
	for _, q := range experiment.PaperQueueMults() {
		cfgs = append(cfgs, experiment.Config{
			Pairing:    pairing,
			AQM:        aqm.KindFIFO,
			QueueBDP:   q,
			Bottleneck: bw,
			Duration:   15 * time.Second,
		})
	}
	results, err := experiment.RunAll(cfgs, 1, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	s := experiment.Summarize(results)
	fmt.Print(s.RenderThroughputFigure(pairing, aqm.KindFIFO))
	if q, ok := s.EquilibriumBDP(pairing, aqm.KindFIFO, bw); ok {
		fmt.Printf("CUBIC first overtakes BBRv1 at %gxBDP\n", q)
	} else {
		fmt.Println("BBRv1 leads at every buffer size")
	}
	// Output:
	// Per-sender throughput, bbr1-vs-cubic, AQM=fifo
	//
	//   bottleneck 100Mbps:
	//     buffer      sender1(Mbps)  sender2(Mbps)        J
	//     0.5xBDP              79.9           15.7    0.689
	//     1xBDP                74.8           21.8    0.769
	//     2xBDP                34.3           63.8    0.917
	//     4xBDP                29.6           68.5    0.864
	//     8xBDP                43.7           54.4    0.988
	//     16xBDP               40.6           57.4    0.971
	// CUBIC first overtakes BBRv1 at 2xBDP
}
