// Command tcpfair runs one fairness experiment on the simulated FABRIC
// dumbbell and prints the per-sender outcome — the simulator's equivalent
// of one row of the paper's measurement campaign.
//
// Examples:
//
//	tcpfair -cca1 bbr1 -cca2 cubic -aqm fifo -queue 2 -bw 1Gbps
//	tcpfair -cca1 cubic -cca2 cubic -aqm red -bw 100Mbps -duration 60s -seed 3
//	tcpfair -cca1 bbr2 -cca2 cubic -aqm fq_codel -bw 10Gbps -trace /tmp/logs
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/aqm"
	"repro/internal/audit"
	"repro/internal/cca"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/flows"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/units"
)

func main() {
	var (
		cca1        = flag.String("cca1", "cubic", "sender 1 congestion control (reno|cubic|htcp|bbr1|bbr2)")
		cca2        = flag.String("cca2", "cubic", "sender 2 congestion control")
		aqmName     = flag.String("aqm", "fifo", "bottleneck AQM (fifo|red|fq_codel)")
		queue       = flag.Float64("queue", 2, "bottleneck buffer size in BDP multiples")
		bwStr       = flag.String("bw", "1Gbps", "bottleneck bandwidth (e.g. 100Mbps, 25Gbps)")
		duration    = flag.Duration("duration", 0, "simulated transfer time (0 = bandwidth-scaled default)")
		nflows      = flag.Int("nflows", 0, "long-running flows per sender (0 = paper's Table 2 plan, scaled)")
		flowSpec    = flag.String("flows", "", "open-loop background workload: preset list (mice, elephants, mixed, e.g. mice:arrival=100ms,p95=1MB), inline JSON, or @file.json")
		soloFCT     = flag.Bool("solo-fct", false, "run the -flows workload alone (no elephants): the FCT baseline the harm matrix divides by")
		seed        = flag.Uint64("seed", 1, "replica seed")
		rtt         = flag.Duration("rtt", 62*time.Millisecond, "end-to-end round-trip time")
		paper       = flag.Bool("paper-scale", false, "full 200s runs and uncapped Table 2 flow counts")
		ecn         = flag.Bool("ecn", false, "enable ECN end to end")
		delayedAck  = flag.Bool("delayed-ack", false, "enable RFC 1122 delayed acknowledgements on receivers")
		traceDir    = flag.String("trace", "", "directory for iperf3-style per-flow JSON logs")
		interval    = flag.Duration("interval", time.Second, "interval for the per-second report")
		quiet       = flag.Bool("quiet", false, "suppress the per-interval report")
		faultSpec   = flag.String("faults", "", "fault profile: preset list (e.g. flap or ge:pgb=0.01+flap:at=10s), inline JSON, or @file.json")
		topoSpec    = flag.String("topo", "", "network topology: preset (dumbbell, parking-lot-3, reverse-path[:factor=0.005], cross-traffic[:cca=bbr1]), inline JSON, or @file.json")
		auditRun    = flag.Bool("audit", false, "enable the runtime invariant auditor (packet conservation, queue accounting, TCP sequence sanity)")
		telemOut    = flag.String("telemetry-out", "", "record flight-recorder telemetry and write it as NDJSON to this file (render with cmd/timeline)")
		traceRing   = flag.Int("trace-ring", 0, "telemetry ring capacity in events per flow/port (0 = default; larger rings keep more history before overwriting)")
		traceSample = flag.Int("trace-sample", 0, "keep 1-in-N of the high-frequency telemetry events (0 = keep all)")
		fairRun     = flag.Bool("fairness", false, "arm the fairness observatory: windowed Jain(t)/share series, convergence time, starvation episodes")
		fairWindow  = flag.Duration("fairness-window", 0, "fairness sampling window (0 = 100ms default; implies -fairness)")
	)
	flag.Parse()

	c1, err := cca.Parse(*cca1)
	if err != nil {
		fatal(err)
	}
	c2, err := cca.Parse(*cca2)
	if err != nil {
		fatal(err)
	}
	kind, err := aqm.ParseKind(*aqmName)
	if err != nil {
		fatal(err)
	}
	bw, err := units.ParseBandwidth(*bwStr)
	if err != nil {
		fatal(err)
	}
	profile, err := faults.Parse(*faultSpec)
	if err != nil {
		fatal(err)
	}
	topology, err := topo.Parse(*topoSpec)
	if err != nil {
		fatal(err)
	}
	workload, err := flows.Parse(*flowSpec)
	if err != nil {
		fatal(err)
	}
	if *soloFCT && workload == nil {
		fatal(fmt.Errorf("-solo-fct requires -flows"))
	}

	cfg := experiment.Config{
		Pairing:        experiment.Pairing{CCA1: c1, CCA2: c2},
		AQM:            kind,
		QueueBDP:       *queue,
		Bottleneck:     bw,
		RTT:            *rtt,
		Duration:       *duration,
		FlowsPerSender: *nflows,
		Seed:           *seed,
		PaperScale:     *paper,
		ECN:            *ecn,
		DelayedAck:     *delayedAck,
		SampleInterval: *interval,
		Faults:         profile,
		Topology:       topology,
		Audit:          *auditRun,
		Flows:          workload,
		SoloFCT:        *soloFCT,
	}

	if *fairRun || *fairWindow > 0 {
		cfg.Fairness = true
		cfg.FairnessWindow = *fairWindow
	}

	var obs []experiment.Observer
	if !*quiet {
		obs = append(obs, experiment.IntervalReport(os.Stdout))
	}
	if *traceDir != "" {
		obs = append(obs, experiment.FlowLogs(*traceDir))
	}
	var telemFile *os.File
	if *telemOut != "" {
		cfg.Trace = true
		cfg.TraceRingCap = *traceRing
		cfg.TraceSampleN = *traceSample
		telemFile, err = os.Create(*telemOut)
		if err != nil {
			fatal(err)
		}
	}
	res, err := run(cfg, obs)
	if err != nil {
		fatal(err)
	}
	if telemFile != nil {
		if err := telemetry.EncodeNDJSON(telemFile, res.Trace); err != nil {
			fatal(fmt.Errorf("telemetry: %w", err))
		}
		if err := telemFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tcpfair: wrote telemetry NDJSON to %s\n", *telemOut)
	}

	fmt.Printf("\n=== %s ===\n", res.Config.ID())
	fmt.Printf("bottleneck      %v, %v RTT, %s queue = %g x BDP\n",
		res.Config.Bottleneck, res.Config.RTT, res.Config.AQM, res.Config.QueueBDP)
	if len(res.Groups) > 0 {
		fmt.Printf("flows           %d across %d classes, %gs simulated\n",
			res.Flows, len(res.Groups), res.SimSeconds)
	} else {
		fmt.Printf("flows           %d (%d per sender), %gs simulated\n",
			res.Flows, res.Flows/2, res.SimSeconds)
	}
	fmt.Printf("sender 1 (%s)  %10.2f Mbps\n", c1, res.SenderMbps(0))
	fmt.Printf("sender 2 (%s)  %10.2f Mbps\n", c2, res.SenderMbps(1))
	fmt.Printf("Jain index      %10.4f\n", res.Jain)
	fmt.Printf("utilization     %10.4f\n", res.Utilization)
	fmt.Printf("retransmits     %10d (sender1 %d, sender2 %d)\n",
		res.TotalRetransmits, res.Retransmits[0], res.Retransmits[1])
	fmt.Printf("queue drops     %10d (ECN marks %d)\n", res.QueueDropped, res.QueueMarked)
	if res.FaultLossDrops > 0 || res.FaultDownDrops > 0 {
		fmt.Printf("fault drops     %10d loss-injected, %d flap-destroyed\n",
			res.FaultLossDrops, res.FaultDownDrops)
	}
	fmt.Printf("queueing delay  %10v mean, %v max\n",
		res.SojournMean.Round(time.Microsecond), res.SojournMax.Round(time.Microsecond))
	if len(res.Groups) > 0 {
		fmt.Printf("\nper-class results:\n")
		for _, g := range res.Groups {
			bg := ""
			if g.Background {
				bg = " (background)"
			}
			fmt.Printf("  %-8s %-6s %2d flows %12.2f Mbps  %8d rtx%s\n",
				g.Name, g.CCA, g.Flows, g.Bps/1e6, g.Retransmits, bg)
		}
	}
	if res.FCT != nil {
		fmt.Printf("\nopen-loop workload: %d flows opened, %d completed, %d still open\n",
			res.FCT.Opened, res.FCT.Completed, res.FCT.Open)
		for _, c := range res.FCT.Classes {
			if c.Count == 0 {
				fmt.Printf("  %-7s  no completions\n", c.Class)
				continue
			}
			fmt.Printf("  %-7s %6d flows %12s  FCT p50 %10v  p95 %10v  p99 %10v  mean %10v\n",
				c.Class, c.Count, units.ByteSize(c.Bytes).String(),
				c.P50.Round(time.Microsecond), c.P95.Round(time.Microsecond),
				c.P99.Round(time.Microsecond), c.Mean.Round(time.Microsecond))
		}
	}
	if len(res.Ports) > 0 {
		fmt.Printf("per-port results:\n")
		for _, pt := range res.Ports {
			fmt.Printf("  %-10s %10v  util %6.3f  drops %8d  peak %9d B  sojourn %v\n",
				pt.Name, pt.RateBps, pt.Utilization, pt.Dropped, pt.PeakQueueBytes,
				pt.SojournMean.Round(time.Microsecond))
		}
	}
	if fr := res.Fairness; fr != nil {
		fmt.Printf("\nfairness observatory (%v windows, %d samples):\n", fr.Window, fr.Windows)
		fmt.Printf("  Jain(t)       final %.4f  mean %.4f  min %.4f\n",
			fr.FinalJain, fr.MeanJain, fr.MinJain)
		if fr.Converged {
			fmt.Printf("  converged at  %v (Jain >= %.2f sustained %d windows)\n",
				fr.ConvergenceTime, fr.Detector.JainThreshold, fr.Detector.SustainWindows)
		} else {
			fmt.Printf("  converged at  never (Jain never sustained %.2f for %d windows)\n",
				fr.Detector.JainThreshold, fr.Detector.SustainWindows)
		}
		fmt.Printf("  time below %.2f  %v\n", fr.Detector.JainFloor, fr.TimeBelowFloor)
		for _, ff := range fr.Flows {
			ttf := "never"
			if ff.ReachedFair {
				ttf = ff.TimeToFair.String()
			}
			fmt.Printf("  flow %-3d %-6s share mean %.3f final %.3f  fair at %s\n",
				ff.ID, ff.CCA, ff.MeanShare, ff.FinalShare, ttf)
		}
		fmt.Printf("  episodes: %d\n", len(fr.Episodes))
		for _, ep := range fr.Episodes {
			state := "resolved"
			if !ep.Resolved {
				state = "unresolved at end"
			}
			fmt.Printf("    flow %d (%s) starved %v-%v mean share %.3f culprits %v (%s)\n",
				ep.FlowID, ep.CCA, ep.Start, ep.End, ep.MeanShare, ep.Culprits, state)
		}
	}
	fmt.Printf("events          %10d in %v wall\n", res.Events, res.Wall.Round(time.Millisecond))
}

// run wraps experiment.Run, converting an invariant-auditor violation
// (raised as a panic so the sweep runner can journal it) into a clean fatal
// error with the full structured report for interactive use.
func run(cfg experiment.Config, obs []experiment.Observer) (res experiment.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, ok := r.(*audit.Violation)
			if !ok {
				panic(r)
			}
			err = v
		}
	}()
	return experiment.Run(cfg, obs...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tcpfair:", err)
	os.Exit(1)
}
