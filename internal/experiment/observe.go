package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Observer watches one run without changing it. Run calls Attach once the
// network is built and every long-running flow and the open-loop workload
// are attached, just before the engine runs; an observer that samples
// periodically does so on a timer set up with sim.Timer.InitObserver, which
// keeps its ticks out of Result.Events and the MaxEvents watchdog. Run
// calls Finish, in the order the observers were given, on the assembled
// Result of a run that completed; a watchdog overrun skips it.
type Observer interface {
	Attach(eng *sim.Engine, net *topo.Network, cfg Config)
	Finish(res *Result) error
}

// IntervalReport returns an observer that writes an iperf3-like line to w
// every Config.SampleInterval: each sender's goodput over the interval and
// the monitor queue's depth. The dumbbell keeps the two-sender shape; graph
// topologies print one name-and-rate column per sender class.
func IntervalReport(w io.Writer) Observer { return &intervalReport{w: w} }

type intervalReport struct {
	w     io.Writer
	eng   *sim.Engine
	net   *topo.Network
	cfg   Config
	last  []int64
	rates []float64
	timer sim.Timer
}

func (r *intervalReport) Attach(eng *sim.Engine, net *topo.Network, cfg Config) {
	r.eng, r.net, r.cfg = eng, net, cfg
	r.last = make([]int64, net.NumClasses())
	r.rates = make([]float64, net.NumClasses())
	r.timer.InitObserver(eng, r)
	r.timer.Reset(cfg.SampleInterval)
}

func (r *intervalReport) OnEvent(any) {
	for ci := range r.rates {
		cur := r.net.ClassGoodput(ci)
		r.rates[ci] = float64(cur-r.last[ci]) * 8 / r.cfg.SampleInterval.Seconds()
		r.last[ci] = cur
	}
	now := r.eng.Now().Seconds()
	queued := r.net.Monitor().Queue().Len()
	if r.cfg.Topology == nil {
		fmt.Fprintf(r.w,
			"[%7.2fs] sender1(%-5s) %9.2f Mbps | sender2(%-5s) %9.2f Mbps | queue %6d pkts\n",
			now, r.cfg.Pairing.CCA1, r.rates[0]/1e6, r.cfg.Pairing.CCA2, r.rates[1]/1e6, queued)
	} else {
		fmt.Fprintf(r.w, "[%7.2fs]", now)
		for ci, rate := range r.rates {
			fmt.Fprintf(r.w, " %s %9.2f Mbps |", r.net.ClassSpec(ci).Name, rate/1e6)
		}
		fmt.Fprintf(r.w, " %s queue %6d pkts\n", r.net.MonitorName(), queued)
	}
	r.timer.Reset(r.cfg.SampleInterval)
}

func (r *intervalReport) Finish(*Result) error { return nil }

// FlowLogs returns an observer that writes one iperf3-style JSON log per
// long-running flow into dir (created if missing) as
// <config ID>_flow<N>.json, with one interval per Config.SampleInterval
// counted from the flow's start. The logs take the shape of
// `iperf3 --json`, the paper's shared dataset, so pipelines built for it
// read simulator output unchanged.
func FlowLogs(dir string) Observer { return &flowLogs{dir: dir} }

type flowLogs struct {
	dir   string
	eng   *sim.Engine
	cfg   Config
	flows []*topo.Flow
	logs  []flowLog
	timer sim.Timer
}

// flowLog is one flow's log and the cumulative counters at its last
// interval's end.
type flowLog struct {
	log       iperfLog
	lastBytes int64
	lastRtx   uint64
	lastAt    float64 // seconds
}

// iperfLog mirrors one `iperf3 --json` report.
type iperfLog struct {
	Title string `json:"title"` // <config ID>/flow<N>
	Start struct {
		Congestion string  `json:"congestion"` // CCA name
		Sender     int     `json:"sender"`     // sender class
		FlowID     uint32  `json:"flow_id"`
		TestStart  float64 `json:"test_start"` // sim seconds
	} `json:"start"`
	Intervals []iperfInterval `json:"intervals"`
	End       struct {
		SumSent struct {
			iperfSum
			Retransmits uint64 `json:"retransmits"`
		} `json:"sum_sent"`
		SumReceived iperfSum `json:"sum_received"`
	} `json:"end"`
}

// iperfInterval mirrors iperf3's intervals[].sum object.
type iperfInterval struct {
	Start         float64 `json:"start"` // sim seconds
	End           float64 `json:"end"`
	Seconds       float64 `json:"seconds"`
	Bytes         int64   `json:"bytes"` // goodput bytes this interval
	BitsPerSecond float64 `json:"bits_per_second"`
	Retransmits   uint64  `json:"retransmits"`
	SndCwnd       int64   `json:"snd_cwnd"` // bytes
	RTT           int64   `json:"rtt"`      // microseconds, like iperf3
}

type iperfSum struct {
	Seconds       float64 `json:"seconds"`
	Bytes         int64   `json:"bytes"`
	BitsPerSecond float64 `json:"bits_per_second"`
}

func newIperfSum(seconds float64, bytes int64) iperfSum {
	s := iperfSum{Seconds: seconds, Bytes: bytes}
	if seconds > 0 {
		s.BitsPerSecond = float64(bytes) * 8 / seconds
	}
	return s
}

func (l *flowLogs) Attach(eng *sim.Engine, net *topo.Network, cfg Config) {
	l.eng, l.cfg, l.flows = eng, cfg, net.Flows()
	l.logs = make([]flowLog, len(l.flows))
	for i, f := range l.flows {
		fl := &l.logs[i]
		fl.log.Title = fmt.Sprintf("%s/flow%d", cfg.ID(), f.ID)
		fl.log.Start.Congestion = f.CCName
		fl.log.Start.Sender = f.Sender
		fl.log.Start.FlowID = uint32(f.ID)
		fl.log.Start.TestStart = f.Start.Seconds()
		fl.lastAt = fl.log.Start.TestStart
	}
	l.timer.InitObserver(eng, l)
	l.timer.Reset(cfg.SampleInterval)
}

func (l *flowLogs) OnEvent(any) {
	now := l.eng.Now().Seconds()
	for i, f := range l.flows {
		l.logs[i].observe(now, f.Rcv.Goodput(), f.Conn.Stats().Retransmits, f.Conn.Cwnd(), f.Conn.SRTT())
	}
	l.timer.Reset(l.cfg.SampleInterval)
}

// observe closes the interval ending at now (seconds) from the flow's
// cumulative goodput and retransmits; an empty interval is skipped.
func (fl *flowLog) observe(now float64, bytes int64, retransmits uint64, cwnd int64, rtt time.Duration) {
	dur := now - fl.lastAt
	if dur <= 0 {
		return
	}
	db := bytes - fl.lastBytes
	fl.log.Intervals = append(fl.log.Intervals, iperfInterval{
		Start:         fl.lastAt,
		End:           now,
		Seconds:       dur,
		Bytes:         db,
		BitsPerSecond: float64(db) * 8 / dur,
		Retransmits:   retransmits - fl.lastRtx,
		SndCwnd:       cwnd,
		RTT:           rtt.Microseconds(),
	})
	fl.lastBytes, fl.lastRtx, fl.lastAt = bytes, retransmits, now
}

// finish fills the end summary over the run's seconds.
func (fl *flowLog) finish(seconds float64, sent, rcvd int64, retransmits uint64) {
	fl.log.End.SumSent.iperfSum = newIperfSum(seconds, sent)
	fl.log.End.SumSent.Retransmits = retransmits
	fl.log.End.SumReceived = newIperfSum(seconds, rcvd)
}

func (l *flowLogs) Finish(*Result) error {
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return fmt.Errorf("flow logs: %w", err)
	}
	for i, f := range l.flows {
		st := f.Conn.Stats()
		l.logs[i].finish(l.cfg.Duration.Seconds(), st.BytesSent, f.Rcv.Goodput(), st.Retransmits)
		name := fmt.Sprintf("%s_flow%d.json", l.cfg.ID(), f.ID)
		if err := writeLog(filepath.Join(l.dir, name), &l.logs[i].log); err != nil {
			return err
		}
	}
	return nil
}

// writeLog writes one log as indented JSON, like `iperf3 --json`.
func writeLog(path string, log *iperfLog) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("flow logs: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(log); err != nil {
		return fmt.Errorf("flow logs: %w", err)
	}
	return f.Close()
}

// fairness is the fairness observatory as an observer; Run adds it when
// Config.Fairness is set, so the disabled path installs no timer at all. It
// tracks every long-running flow: open-loop flows are churn, not
// elephants, and are not in net.Flows().
type fairness struct{ fs *metrics.FairnessSampler }

func (o *fairness) Attach(eng *sim.Engine, net *topo.Network, cfg Config) {
	o.fs = metrics.NewFairnessSampler(eng, cfg.FairnessWindow, cfg.Duration, cfg.Bottleneck)
	for _, f := range net.Flows() {
		conn := f.Conn
		o.fs.TrackFlow(uint32(f.ID), f.CCName, f.Sender, f.Rcv.Goodput,
			func() uint64 { return conn.Stats().Retransmits })
	}
	o.fs.Start()
}

func (o *fairness) Finish(res *Result) error {
	res.Fairness = o.fs.Report(metrics.DefaultDetector())
	return nil
}
