// Runner drives a Spec inside a built network: it schedules each
// population's Poisson arrivals on the engine, opens an ephemeral TCP
// flow per arrival, and on completion records the FCT into bounded
// per-size-class percentile sketches and releases the flow's resources.
package flows

import (
	"fmt"
	"time"

	"repro/internal/audit"
	"repro/internal/cca"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/units"
)

// SizeClass buckets flows by transfer size for per-class FCT reporting.
// Thresholds are fixed (not data-dependent) so the class of a flow is a
// property of the flow alone: small ≤ 256KB, medium ≤ 4MB, large above.
type SizeClass int

const (
	ClassAll SizeClass = iota
	ClassSmall
	ClassMedium
	ClassLarge
	NumSizeClasses
)

const (
	SmallMax  = 256 * units.Kilobyte
	MediumMax = 4 * units.Megabyte
)

// ClassOf returns the size class of a transfer.
func ClassOf(size int64) SizeClass {
	switch {
	case size <= int64(SmallMax):
		return ClassSmall
	case size <= int64(MediumMax):
		return ClassMedium
	default:
		return ClassLarge
	}
}

func (c SizeClass) String() string {
	switch c {
	case ClassAll:
		return "all"
	case ClassSmall:
		return "small"
	case ClassMedium:
		return "medium"
	case ClassLarge:
		return "large"
	}
	return "invalid"
}

// Options configures a Runner.
type Options struct {
	// Seed is the experiment seed; each population derives its own RNG
	// stream from it (see Process).
	Seed uint64
	// Horizon stops scheduling arrivals at this simulation time
	// (normally the run duration). Flows opened before the horizon that
	// have not completed by the end of the run count as still open.
	Horizon time.Duration
	// TCP is the base connection config shared with the long-running
	// flows (ECN, delayed ACKs, MSS); LimitBytes is set per flow.
	TCP tcp.Config
}

// Runner owns every ephemeral flow of one run. It is engine-single-
// threaded like everything else in a simulation.
type Runner struct {
	eng  *sim.Engine
	net  *topo.Network
	ccs  *cca.Factory
	aud  *audit.Auditor
	opts Options
	pops []*runnerPop
	idle []*mouse // finished flows' records, reused by later arrivals

	sketches   [NumSizeClasses]*metrics.FCTSketch
	classBytes [NumSizeClasses]int64
	opened     int
	completed  int
	rr         int // round-robin sender-class cursor
}

// runnerPop is one population's arrival process. Its timer fires at the
// next arrival, whose size is held in size.
type runnerPop struct {
	r      *Runner
	proc   *Process
	cc     cca.Name
	size   int64
	arrive sim.Timer
}

// OnEvent implements sim.Handler: the next arrival is due.
func (p *runnerPop) OnEvent(any) {
	p.r.open(p)
	p.r.scheduleNext(p)
}

// mouse is the runner's record of one open flow. Records are recycled
// like the flows themselves, and done, the flow's completion callback, is
// bound once per record.
type mouse struct {
	r        *Runner
	f        *topo.Flow
	cc       tcp.CongestionControl
	openedAt sim.Time
	size     int64
	done     func(*tcp.Conn)
}

// NewRunner builds a runner for spec on a built network. The spec is
// normalized and validated; population order fixes RNG stream derivation.
// When the engine carries an auditor, the runner feeds the dynamic-flow
// lifecycle ledger and registers an end-of-run consistency check.
func NewRunner(eng *sim.Engine, net *topo.Network, spec *Spec, opts Options) (*Runner, error) {
	n := spec.Normalize()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if n.Empty() {
		return nil, fmt.Errorf("flows: empty spec")
	}
	r := &Runner{eng: eng, net: net, ccs: net.Controllers(), aud: eng.Auditor(), opts: opts}
	for i := range r.sketches {
		r.sketches[i] = metrics.NewFCTSketch()
	}
	for pi, pop := range n.Populations {
		name, err := cca.Parse(string(pop.CCA))
		if err != nil {
			return nil, fmt.Errorf("flows: %s: %w", pop.Name, err)
		}
		p := &runnerPop{r: r, proc: NewProcess(opts.Seed, pi, pop), cc: name}
		p.arrive.Init(eng, p, nil)
		r.pops = append(r.pops, p)
	}
	if r.aud != nil {
		r.aud.OnFinish("flows", "lifecycle", r.checkLifecycle)
	}
	return r, nil
}

// Start schedules the first arrival of every population. Must be called
// before the engine runs (arrivals are absolute times from t=0).
func (r *Runner) Start() {
	for _, p := range r.pops {
		r.scheduleNext(p)
	}
}

// scheduleNext pulls one arrival from the population's process and arms
// the population's timer for it, unless the process is exhausted or past
// the horizon. A timer reset takes the next sequence number exactly as
// scheduling a fresh event would, so arrivals keep their place in the
// event order.
func (r *Runner) scheduleNext(p *runnerPop) {
	at, size, ok := p.proc.Next()
	if !ok || at >= r.opts.Horizon {
		return
	}
	// An arrival time already passed (burst) is clamped to now: open
	// immediately.
	p.size = size
	p.arrive.Reset(at - time.Duration(r.eng.Now()))
}

// open attaches one ephemeral flow and starts its transfer. Sender
// classes are assigned round-robin so multi-class topologies spread the
// background load deterministically.
func (r *Runner) open(p *runnerPop) {
	tcpCfg := r.opts.TCP
	tcpCfg.LimitBytes = p.size
	ci := r.rr % r.net.NumClasses()
	r.rr++
	m := r.record()
	m.cc = r.ccs.MustNew(p.cc)
	m.f = r.net.AddEphemeralFlow(ci, tcpCfg, m.cc)
	r.opened++
	if r.aud != nil {
		r.aud.FlowOpened()
	}
	m.openedAt, m.size = r.eng.Now(), p.size
	m.f.Conn.Trace().FlowOpen(int64(m.openedAt), m.size)
	m.f.Conn.OnDone(m.done)
	m.f.Conn.Start()
}

// record returns an idle flow record, or a new one with its completion
// callback bound.
func (r *Runner) record() *mouse {
	if n := len(r.idle); n > 0 {
		m := r.idle[n-1]
		r.idle = r.idle[:n-1]
		return m
	}
	m := &mouse{r: r}
	m.done = m.complete
	return m
}

// complete records the finished transfer and releases the flow and its
// controller. It runs inside the flow's Conn.Receive, so neither is
// reused before a later arrival event. Packets of the flow still in flight
// (duplicate ACKs, stale retransmits) drain through the demux unknown-flow
// path, so the conservation ledger stays settled.
func (m *mouse) complete(*tcp.Conn) {
	r, f, size := m.r, m.f, m.size
	fct := time.Duration(r.eng.Now() - m.openedAt)
	r.sketches[ClassAll].Record(fct)
	r.classBytes[ClassAll] += size
	c := ClassOf(size)
	r.sketches[c].Record(fct)
	r.classBytes[c] += size
	r.completed++
	if r.aud != nil {
		r.aud.FlowClosed()
	}
	f.Conn.Trace().FlowComplete(int64(r.eng.Now()), int64(fct), size)
	r.net.ReleaseFlow(f)
	r.ccs.Release(m.cc)
	m.f, m.cc = nil, nil
	r.idle = append(r.idle, m)
}

// checkLifecycle is the end-of-run audit invariant: the runner's own
// open/complete counters must agree with the auditor's lifecycle ledger,
// and no flow may complete more than once.
func (r *Runner) checkLifecycle() error {
	if r.completed > r.opened {
		return fmt.Errorf("%d completions for %d opened flows", r.completed, r.opened)
	}
	if got, want := r.aud.FlowsOpened(), int64(r.opened); got != want {
		return fmt.Errorf("auditor saw %d flow opens, runner opened %d", got, want)
	}
	if got, want := r.aud.FlowsClosed(), int64(r.completed); got != want {
		return fmt.Errorf("auditor saw %d flow closes, runner completed %d", got, want)
	}
	return nil
}

// Opened returns how many flows arrived and were attached.
func (r *Runner) Opened() int { return r.opened }

// Completed returns how many flows finished their transfer.
func (r *Runner) Completed() int { return r.completed }

// Open returns how many flows were still transferring at the end.
func (r *Runner) Open() int { return r.opened - r.completed }

// Sketch returns the FCT sketch of one size class.
func (r *Runner) Sketch(c SizeClass) *metrics.FCTSketch { return r.sketches[c] }

// ClassBytes returns the completed payload bytes of one size class.
func (r *Runner) ClassBytes(c SizeClass) int64 { return r.classBytes[c] }
