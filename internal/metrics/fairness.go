package metrics

import (
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/units"
)

// DefaultFairnessWindow is the observatory's sampling cadence when the
// configuration does not override it: fine enough to see BBR's ~10 s
// ProbeRTT dips and CUBIC's epoch-scale convergence, coarse enough that a
// paper-scale 200 s run stays at 2000 windows.
const DefaultFairnessWindow = 100 * time.Millisecond

// DetectorConfig holds the thresholds the fairness detectors run with. All
// detectors are pure functions of the windowed series, so tests can feed
// synthetic series and assert exact outcomes.
type DetectorConfig struct {
	// JainThreshold is the Jain(t) level that counts as "fair" for
	// convergence detection.
	JainThreshold float64 `json:"jain_threshold"`
	// SustainWindows is how many consecutive windows the threshold must
	// hold before the run counts as converged (a single lucky window is
	// not convergence).
	SustainWindows int `json:"sustain_windows"`
	// FairShareEps is the per-flow tolerance: a flow has reached its fair
	// share once its windowed share is at least (1-eps)·(1/n).
	FairShareEps float64 `json:"fair_share_eps"`
	// StarvationFrac is δ: a flow is starving while its windowed share
	// sits below δ·(1/n).
	StarvationFrac float64 `json:"starvation_frac"`
	// StarvationMin is the minimum duration a flow must sit below the
	// starvation line before the stretch counts as an episode.
	StarvationMin time.Duration `json:"starvation_min_ns"`
	// JainFloor is the level for the time-below integral (the paper-style
	// "how long was the link measurably unfair" number).
	JainFloor float64 `json:"jain_floor"`
}

// DefaultDetector returns the thresholds used by experiment runs: converge
// at Jain ≥ 0.95 sustained for 5 windows, fair share within 25%, starvation
// below a quarter of fair share for at least a second, unfairness floor 0.9.
func DefaultDetector() DetectorConfig {
	return DetectorConfig{
		JainThreshold:  0.95,
		SustainWindows: 5,
		FairShareEps:   0.25,
		StarvationFrac: 0.25,
		StarvationMin:  time.Second,
		JainFloor:      0.9,
	}
}

// FlowFairness is one tracked flow's share-of-bottleneck time series and
// its per-flow detector findings.
type FlowFairness struct {
	ID    uint32 `json:"id"`
	CCA   string `json:"cca"`
	Class int    `json:"class"` // sender class index
	// Active is false for a flow that never delivered a byte; such flows
	// are excluded from starvation detection (they never started, so they
	// cannot have been starved by a competitor mid-run).
	Active bool `json:"active"`
	// FirstActive is the end of the first window in which the flow
	// delivered bytes (meaningful only when Active).
	FirstActive time.Duration `json:"first_active_ns"`
	MeanShare   float64       `json:"mean_share"`
	FinalShare  float64       `json:"final_share"`
	// ReachedFair and TimeToFair report when the flow's windowed share
	// first reached (1-eps)·fair-share sustained for SustainWindows.
	ReachedFair bool          `json:"reached_fair"`
	TimeToFair  time.Duration `json:"time_to_fair_ns"`
	// Share is the per-window share-of-bottleneck series (goodput over
	// the window divided by the bottleneck rate).
	Share []float64 `json:"share"`
}

// StarvationEpisode is one contiguous stretch in which a flow's windowed
// share sat below StarvationFrac of fair share for at least StarvationMin.
// Times are simulation times: Start is the beginning of the first starved
// window, End the end of the last one.
type StarvationEpisode struct {
	FlowID uint32        `json:"flow_id"`
	CCA    string        `json:"cca"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// MeanShare is the victim's mean share over the episode.
	MeanShare float64 `json:"mean_share"`
	// Culprits lists the flows that took more than 1.5× the equal split
	// of the traffic actually delivered during the episode — who was
	// eating the victim's bandwidth. Normalizing by delivered traffic
	// (not link capacity) still names the culprit when the link ran
	// underutilized, e.g. a BBR flow draining its queue estimate while
	// CUBIC backs off.
	Culprits []uint32 `json:"culprits,omitempty"`
	// Resolved is true when the episode ended before the run did.
	Resolved bool `json:"resolved"`
}

// FairnessReport is the observatory's structured outcome: the windowed
// series plus every detector finding. All fields are derived from
// deterministic integer byte counters sampled at fixed simulation times,
// so the report is byte-identical across worker counts and replay.
type FairnessReport struct {
	Window  time.Duration `json:"window_ns"`
	Windows int           `json:"windows"`

	FinalJain float64 `json:"final_jain"`
	MeanJain  float64 `json:"mean_jain"`
	MinJain   float64 `json:"min_jain"`

	// ActiveFrom is when the last flow that ever delivered bytes became
	// active — the moment all competitors are present. Convergence is
	// scanned from here: before it, windows are trivially fair (an idle or
	// half-populated link says nothing about how competitors share).
	ActiveFrom time.Duration `json:"active_from_ns"`
	// Converged and ConvergenceTime report the first window end at or
	// after ActiveFrom at which Jain(t) ≥ JainThreshold held for
	// SustainWindows consecutive windows.
	Converged       bool          `json:"converged"`
	ConvergenceTime time.Duration `json:"convergence_time_ns"`
	// TimeBelowFloor integrates the windows with Jain(t) < JainFloor.
	TimeBelowFloor time.Duration `json:"time_below_floor_ns"`

	// Jain is the windowed Jain(t) series over the tracked flows' per-
	// window goodput; RetxRate is the aggregate retransmit rate (segments
	// per second) in each window.
	Jain     []float64 `json:"jain"`
	RetxRate []float64 `json:"retx_rate"`

	Flows    []FlowFairness      `json:"flows,omitempty"`
	Episodes []StarvationEpisode `json:"episodes,omitempty"`

	Detector DetectorConfig `json:"detector"`
}

// fairProbe is one tracked flow's counters and its preallocated window ring.
type fairProbe struct {
	id      uint32
	cca     string
	class   int
	goodput func() int64
	retx    func() uint64
	lastG   int64
	lastR   uint64
	firstOn int // window index of first nonzero goodput delta, -1 until seen
	share   []float64
}

// FairnessSampler drives the observatory: a persistent observer sim.Timer
// fires at a fixed window cadence, reading each tracked flow's cumulative
// goodput and retransmit counters and appending windowed shares to
// preallocated rings. The engine keeps the ticks out of its event count,
// so an armed run reports the same Events as a plain one. All series are
// sized for the run horizon up front, so steady-state sampling performs no
// allocation — the observatory rides inside the ≤1 alloc/forwarded-packet
// budget.
type FairnessSampler struct {
	eng        *sim.Engine
	window     time.Duration
	bottleneck units.Bandwidth
	capacity   int
	flows      []fairProbe
	jain       []float64
	retx       []float64
	scratch    []float64 // per-flow window deltas, reused every tick
	stopped    bool
	timer      sim.Timer
}

// NewFairnessSampler creates a sampler ticking every window (0 = the
// default cadence) over a run of the given horizon on a bottleneck of the
// given rate. Track flows with TrackFlow, then Start before running the
// engine.
func NewFairnessSampler(eng *sim.Engine, window, horizon time.Duration, bottleneck units.Bandwidth) *FairnessSampler {
	if window <= 0 {
		window = DefaultFairnessWindow
	}
	capacity := 2
	if horizon > 0 {
		capacity += int(horizon / window)
	}
	fs := &FairnessSampler{
		eng:        eng,
		window:     window,
		bottleneck: bottleneck,
		capacity:   capacity,
		jain:       make([]float64, 0, capacity),
		retx:       make([]float64, 0, capacity),
	}
	fs.timer.InitObserver(eng, fs)
	return fs
}

// Window returns the effective sampling cadence.
func (fs *FairnessSampler) Window() time.Duration { return fs.window }

// TrackFlow registers one flow's cumulative goodput and retransmit readers.
// Must be called before Start.
func (fs *FairnessSampler) TrackFlow(id uint32, cca string, class int, goodput func() int64, retx func() uint64) {
	fs.flows = append(fs.flows, fairProbe{
		id:      id,
		cca:     cca,
		class:   class,
		goodput: goodput,
		retx:    retx,
		lastG:   goodput(),
		lastR:   retx(),
		firstOn: -1,
		share:   make([]float64, 0, fs.capacity),
	})
}

// Start arms the window timer. Call after every TrackFlow.
func (fs *FairnessSampler) Start() {
	fs.scratch = make([]float64, len(fs.flows))
	fs.timer.Reset(fs.window)
}

// Stop ends sampling.
func (fs *FairnessSampler) Stop() {
	fs.stopped = true
	fs.timer.Stop()
}

// OnEvent implements sim.Handler: close one window and rearm. The hot loop
// touches only preallocated storage.
func (fs *FairnessSampler) OnEvent(any) {
	if fs.stopped {
		return
	}
	winSec := fs.window.Seconds()
	var retxDelta uint64
	for i := range fs.flows {
		p := &fs.flows[i]
		g := p.goodput()
		d := g - p.lastG
		p.lastG = g
		r := p.retx()
		retxDelta += r - p.lastR
		p.lastR = r
		if d < 0 {
			d = 0
		}
		if d > 0 && p.firstOn < 0 {
			p.firstOn = len(p.share)
		}
		share := 0.0
		if fs.bottleneck > 0 {
			share = float64(d) * 8 / winSec / float64(fs.bottleneck)
		}
		p.share = append(p.share, share)
		fs.scratch[i] = float64(d)
	}
	// Jain over raw window deltas equals Jain over shares (the index is
	// scale-invariant), and stays well-defined when the bottleneck rate is
	// unknown or zero.
	fs.jain = append(fs.jain, Jain(fs.scratch))
	fs.retx = append(fs.retx, float64(retxDelta)/winSec)
	fs.timer.Reset(fs.window)
}

// Report closes the observatory and runs every detector, returning the
// structured findings. Zero-window runs (horizon shorter than one window,
// or a zero-duration run) report trivially fair series and no findings.
func (fs *FairnessSampler) Report(det DetectorConfig) *FairnessReport {
	rep := &FairnessReport{
		Window:   fs.window,
		Windows:  len(fs.jain),
		Jain:     fs.jain,
		RetxRate: fs.retx,
		Detector: det,
	}
	rep.FinalJain, rep.MeanJain, rep.MinJain = 1, 1, 1
	if len(fs.jain) > 0 {
		rep.FinalJain = fs.jain[len(fs.jain)-1]
		rep.MeanJain = Mean(fs.jain)
		rep.MinJain = fs.jain[0]
		for _, j := range fs.jain {
			if j < rep.MinJain {
				rep.MinJain = j
			}
		}
	}
	// The convergence scan starts once every eventually-active flow is
	// present; leading idle/half-populated windows are trivially fair and
	// must not count as convergence.
	from := 0
	for i := range fs.flows {
		if on := fs.flows[i].firstOn; on >= 0 && on > from {
			from = on
		}
	}
	if from > len(fs.jain) {
		from = len(fs.jain)
	}
	rep.ActiveFrom = time.Duration(from) * fs.window
	rep.ConvergenceTime, rep.Converged = ConvergenceTime(fs.jain[from:], fs.window, det)
	if rep.Converged {
		rep.ConvergenceTime += rep.ActiveFrom
	}
	rep.TimeBelowFloor = TimeBelow(fs.jain, fs.window, det.JainFloor)

	fair := 0.0
	if len(fs.flows) > 0 {
		fair = 1 / float64(len(fs.flows))
	}
	rep.Flows = make([]FlowFairness, 0, len(fs.flows))
	for i := range fs.flows {
		p := &fs.flows[i]
		ff := FlowFairness{
			ID:        p.id,
			CCA:       p.cca,
			Class:     p.class,
			MeanShare: Mean(p.share),
			Share:     p.share,
		}
		if len(p.share) > 0 {
			ff.FinalShare = p.share[len(p.share)-1]
		}
		if p.firstOn >= 0 {
			ff.Active = true
			ff.FirstActive = time.Duration(p.firstOn+1) * fs.window
		}
		ff.TimeToFair, ff.ReachedFair = TimeToFairShare(p.share, fair, fs.window, det)
		rep.Flows = append(rep.Flows, ff)
	}
	rep.Episodes = StarvationEpisodes(rep.Flows, fair, fs.window, det)
	return rep
}

// ConvergenceTime returns the simulation time at which the Jain(t) series
// first reached det.JainThreshold and held it for det.SustainWindows
// consecutive windows: the end of the first window of that sustained
// stretch. NaN values never satisfy the threshold. The second return is
// false when the series never converged.
func ConvergenceTime(jain []float64, window time.Duration, det DetectorConfig) (time.Duration, bool) {
	return sustainedAt(jain, det.JainThreshold, window, det.SustainWindows)
}

// sustainedAt returns the end of the first window of the first run of
// sustain (at least 1) consecutive values at or above floor. NaN values
// compare false, so they break a run.
func sustainedAt(series []float64, floor float64, window time.Duration, sustain int) (time.Duration, bool) {
	need := max(sustain, 1)
	run := 0
	for i, v := range series {
		if v >= floor {
			run++
			if run >= need {
				return time.Duration(i-need+2) * window, true
			}
		} else {
			run = 0
		}
	}
	return 0, false
}

// TimeBelow integrates the duration spent with Jain(t) below floor. NaN
// values do not count as below (they carry no evidence either way).
func TimeBelow(jain []float64, window time.Duration, floor float64) time.Duration {
	n := 0
	for _, j := range jain {
		if j < floor {
			n++
		}
	}
	return time.Duration(n) * window
}

// TimeToFairShare returns when a flow's windowed share first reached
// (1-FairShareEps)·fair and held it for SustainWindows consecutive windows.
// A zero fair share (no flows) never triggers.
func TimeToFairShare(share []float64, fair float64, window time.Duration, det DetectorConfig) (time.Duration, bool) {
	if fair <= 0 {
		return 0, false
	}
	return sustainedAt(share, (1-det.FairShareEps)*fair, window, det.SustainWindows)
}

// StarvationEpisodes scans every active flow's share series for contiguous
// stretches below det.StarvationFrac·fair lasting at least
// det.StarvationMin. Scanning starts at the flow's first active window, so
// a late-starting flow is not "starved" before it exists. Culprits are the
// other flows whose mean share over the same windows exceeded fair share.
// Episodes come back sorted by start time, then flow ID.
func StarvationEpisodes(flows []FlowFairness, fair float64, window time.Duration, det DetectorConfig) []StarvationEpisode {
	if fair <= 0 || len(flows) < 2 || window <= 0 {
		return nil
	}
	floor := det.StarvationFrac * fair
	minWin := int((det.StarvationMin + window - 1) / window)
	if minWin < 1 {
		minWin = 1
	}
	var out []StarvationEpisode
	for fi := range flows {
		f := &flows[fi]
		if !f.Active {
			continue
		}
		start := int(f.FirstActive/window) - 1 // index of first active window
		if start < 0 {
			start = 0
		}
		runStart := -1
		flush := func(end int) { // end: one past the last starved window
			if runStart < 0 || end-runStart < minWin {
				runStart = -1
				return
			}
			ep := StarvationEpisode{
				FlowID:    f.ID,
				CCA:       f.CCA,
				Start:     time.Duration(runStart) * window,
				End:       time.Duration(end) * window,
				MeanShare: Mean(f.Share[runStart:end]),
				Resolved:  end < len(f.Share),
			}
			// Culprit rule: more than 1.5× the equal split of what was
			// actually delivered over the episode's windows. Self-
			// normalizing, so it names the hog even when the link ran
			// underutilized (where a capacity-based rule goes blind).
			total := 0.0
			for ci := range flows {
				if end <= len(flows[ci].Share) {
					total += Mean(flows[ci].Share[runStart:end])
				}
			}
			equal := total / float64(len(flows))
			for ci := range flows {
				c := &flows[ci]
				if ci == fi || end > len(c.Share) {
					continue
				}
				if m := Mean(c.Share[runStart:end]); equal > 0 && m > 1.5*equal {
					ep.Culprits = append(ep.Culprits, c.ID)
				}
			}
			out = append(out, ep)
			runStart = -1
		}
		for w := start; w < len(f.Share); w++ {
			if f.Share[w] < floor {
				if runStart < 0 {
					runStart = w
				}
			} else {
				flush(w)
			}
		}
		flush(len(f.Share))
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].FlowID < out[j].FlowID
	})
	return out
}
