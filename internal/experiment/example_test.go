package experiment_test

import (
	"fmt"
	"os"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/experiment"
	"repro/internal/units"
)

// A head-to-head run with a live per-second report on stdout and one
// iperf3-style JSON log per flow.
func ExampleRun() {
	cfg := experiment.Config{
		Pairing:        experiment.Pairing{CCA1: cca.BBRv2, CCA2: cca.Cubic},
		AQM:            aqm.KindFQCoDel,
		QueueBDP:       4,
		Bottleneck:     500 * units.MegabitPerSec,
		Duration:       10 * time.Second,
		FlowsPerSender: 5,
	}
	res, err := experiment.Run(cfg,
		experiment.IntervalReport(os.Stdout),
		experiment.FlowLogs(os.TempDir()))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("BBRv2 %.0f Mbps, CUBIC %.0f Mbps, J=%.2f\n",
		res.SenderMbps(0), res.SenderMbps(1), res.Jain)
}
