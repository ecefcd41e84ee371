// Elephants: the paper's motivating scenario — two science facilities
// pushing many parallel bulk transfers (iperf3 processes × streams per
// Table 2) through a shared 10 Gbps wide-area bottleneck, with live
// per-second reporting and iperf3-style JSON logs you can feed to existing
// analysis pipelines.
//
//	go run ./examples/elephants [trace-dir]
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/experiment"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	bw := 10 * units.GigabitPerSec
	plan := workload.ScaledPlan(bw, 8) // 8 flows per facility (scaled from Table 2's 100)
	fmt.Printf("Facility A: BBRv2, %s\n", plan)
	fmt.Printf("Facility B: CUBIC, %s\n", plan)
	fmt.Printf("Shared path: %v bottleneck, 62 ms RTT, FQ_CODEL, 2xBDP buffer\n\n", bw)

	cfg := experiment.Config{
		Pairing:        experiment.Pairing{CCA1: cca.BBRv2, CCA2: cca.Cubic},
		AQM:            aqm.KindFQCoDel,
		QueueBDP:       2,
		Bottleneck:     bw,
		FlowsPerSender: plan.FlowsPerNode(),
		Duration:       6 * time.Second,
	}
	obs := []experiment.Observer{experiment.IntervalReport(os.Stdout)}
	traceDir := ""
	if len(os.Args) > 1 {
		traceDir = os.Args[1]
		obs = append(obs, experiment.FlowLogs(traceDir))
	}
	res, err := experiment.Run(cfg, obs...)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nTransfer summary after %.0fs:\n", res.SimSeconds)
	fmt.Printf("  Facility A (BBRv2, %d flows): %8.0f Mbps aggregate\n",
		res.Flows/2, res.SenderMbps(0))
	fmt.Printf("  Facility B (CUBIC, %d flows): %8.0f Mbps aggregate\n",
		res.Flows/2, res.SenderMbps(1))
	fmt.Printf("  fairness %.3f, utilization %.3f, retransmissions %d\n",
		res.Jain, res.Utilization, res.TotalRetransmits)
	if traceDir != "" {
		fmt.Printf("  per-flow iperf3-style logs written to %s\n", traceDir)
	}
}
