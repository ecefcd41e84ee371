// Quickstart: the smallest useful program — one BBRv1 elephant flow against
// one CUBIC elephant flow across the simulated 62 ms / 1 Gbps FABRIC
// dumbbell with a 2×BDP FIFO bottleneck, printing who got what.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/experiment"
	"repro/internal/units"
)

func main() {
	res, err := experiment.Run(experiment.Config{
		Pairing:    experiment.Pairing{CCA1: cca.BBRv1, CCA2: cca.Cubic},
		AQM:        aqm.KindFIFO,
		QueueBDP:   2,
		Bottleneck: 1 * units.GigabitPerSec,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BBRv1 vs CUBIC over %v, FIFO, 2xBDP buffer, %.0fs:\n",
		res.Config.Bottleneck, res.SimSeconds)
	fmt.Printf("  BBRv1: %8.1f Mbps\n", res.SenderMbps(0))
	fmt.Printf("  CUBIC: %8.1f Mbps\n", res.SenderMbps(1))
	fmt.Printf("  Jain fairness index: %.3f, link utilization: %.3f\n", res.Jain, res.Utilization)
	fmt.Printf("  retransmissions: %d\n", res.TotalRetransmits)
}
