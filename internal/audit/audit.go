// Package audit implements the simulator's runtime invariant auditor: a
// pluggable correctness layer that the event core, the forwarding plane,
// the queues and the transport endpoints consult while a run executes, and
// that settles a global packet-conservation ledger when the run finishes.
//
// Every number the repo reports — Jain's index, utilization φ, retransmit
// counts — is only as trustworthy as the simulator's bookkeeping, and the
// fault-injection layer (flaps that drain queues, live rate/RTT steps,
// bursty loss) multiplies the ways a packet or a byte can be silently
// double-counted or leaked. The auditor turns such bugs from quiet result
// corruption into loud, structured failures.
//
// # Design
//
// The package is a dependency leaf: it imports nothing from the repo, so
// every layer (sim, netem, aqm, tcp, topo, experiment) can hold an
// *Auditor without import cycles. An Auditor is created per run, attached
// to the run's engine, and discovered by components at construction time.
// Auditing is off by default: a disabled run carries a nil *Auditor, every
// instrumented hot path gates on a single `!= nil` branch, and the
// steady-state forwarding path keeps its ≤1 alloc/packet budget untouched
// (see TestAllocGuardSteadyStateDumbbell).
//
// # Violations
//
// On an invariant breach the auditor panics with a *Violation carrying the
// run's config ID, the simulation time, the breached rule, and a counter
// snapshot. The sweep runner's per-config panic recovery converts the
// panic into an errored Result, so one corrupt simulation surfaces as a
// structured error row instead of poisoning a multi-hour sweep.
//
// # The conservation ledger
//
// Endpoints report every packet they create (PacketCreated) and every
// packet they terminally consume (PacketConsumed). Network elements
// register a probe describing how many packets they destroyed and how many
// are still resident inside them (queued, serializing, or propagating).
// Finish settles the books:
//
//	created == consumed + Σ dropped + Σ resident
//
// using the elements' own production counters (LossDrops, DownDrops, AQM
// drop statistics) on the dropped side — so a skipped counter increment
// anywhere breaks the balance and is reported, not absorbed.
package audit

import (
	"fmt"
	"strings"
)

// Violation is the structured report of one invariant breach. It is the
// panic value raised by Failf; Error renders the full report, so a generic
// recover that formats the panic value with %v preserves everything.
type Violation struct {
	Layer    string // subsystem that failed: "sim", "netem", "aqm", "tcp", "audit"
	Rule     string // short rule identifier, e.g. "packet-conservation"
	ConfigID string // run configuration identity, for sweep triage
	SimNanos int64  // simulation time of the breach, nanoseconds
	Detail   string // what exactly went out of balance
	Counters string // ledger snapshot at the moment of the breach
	// Trace is the flight-recorder dump: when the run carries a telemetry
	// tracer, the last events of every ring (NDJSON) captured at the moment
	// of the breach. Empty when tracing is disabled.
	Trace string
}

// Error implements error with the complete multi-line report.
func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit violation [%s/%s] config=%q t=%.6fs: %s",
		v.Layer, v.Rule, v.ConfigID, float64(v.SimNanos)/1e9, v.Detail)
	if v.Counters != "" {
		b.WriteString("\n")
		b.WriteString(v.Counters)
	}
	if v.Trace != "" {
		b.WriteString("\n  flight recorder (last events per ring, NDJSON):\n")
		for _, line := range strings.Split(strings.TrimRight(v.Trace, "\n"), "\n") {
			b.WriteString("  | ")
			b.WriteString(line)
			b.WriteString("\n")
		}
	}
	return b.String()
}

// String returns the same report as Error.
func (v *Violation) String() string { return v.Error() }

// NetSample is one network element's contribution to the conservation
// ledger, produced by a registered probe.
type NetSample struct {
	Name     string // element identity, e.g. the port name
	Dropped  int64  // packets the element destroyed, from its production counters
	Resident int64  // packets currently inside it (queued/serializing/propagating)
}

// finishCheck is a deferred end-of-run invariant owned by one layer.
type finishCheck struct {
	layer, rule string
	fn          func() error
}

// Auditor validates one run's bookkeeping. It is single-goroutine like the
// engine that owns it: every instrumented component of a run shares the
// run's engine and therefore its goroutine, so no locking is needed. A nil
// *Auditor means auditing is disabled; callers gate their instrumentation
// on that.
type Auditor struct {
	configID string
	clock    func() int64

	// Conservation ledger, bumped by endpoints on the hot path.
	created  int64
	consumed int64

	// Dynamic-flow lifecycle ledger, bumped by open-loop workloads as
	// flows come and go mid-run. Not part of packet conservation (a
	// closed flow's in-flight packets drain through the demux
	// unknown-flow path), but Finish insists the lifecycle itself is
	// sane: a flow cannot close more times than it opened.
	flowsOpened int64
	flowsClosed int64

	probes  []func() NetSample
	finals  []finishCheck
	samples []NetSample // scratch reused by snapshot/Finish

	// flight, when set, captures the telemetry flight-recorder dump at the
	// moment a violation is raised. Installed by the engine when both an
	// auditor and a tracer are attached; consulted only on the failure
	// path, never per packet.
	flight func() string
}

// New returns an enabled auditor for the run identified by configID.
func New(configID string) *Auditor {
	return &Auditor{configID: configID}
}

// SetClock installs the simulation-time source used to stamp violations.
// The engine calls this when the auditor is attached.
func (a *Auditor) SetClock(fn func() int64) { a.clock = fn }

// SetFlightRecorder installs the capture function a violation calls to
// embed the telemetry rings' trailing events in its report. The engine
// wires this to the run's tracer; a run without tracing leaves it nil and
// violations carry no trace.
func (a *Auditor) SetFlightRecorder(fn func() string) { a.flight = fn }

// ConfigID returns the run identity the auditor was created with.
func (a *Auditor) ConfigID() string { return a.configID }

func (a *Auditor) now() int64 {
	if a.clock == nil {
		return 0
	}
	return a.clock()
}

// PacketCreated records one packet entering the network at an endpoint
// (a data segment leaving a sender, an ACK leaving a receiver).
func (a *Auditor) PacketCreated() { a.created++ }

// PacketConsumed records one packet terminally leaving the network at an
// endpoint (delivered to a sink, demux, sender or receiver and released).
func (a *Auditor) PacketConsumed() { a.consumed++ }

// FlowOpened records one dynamic flow entering the network mid-run.
func (a *Auditor) FlowOpened() { a.flowsOpened++ }

// FlowClosed records one dynamic flow leaving the network (completed and
// released, or torn down at end of run).
func (a *Auditor) FlowClosed() { a.flowsClosed++ }

// FlowsOpened returns the lifecycle ledger's opened count.
func (a *Auditor) FlowsOpened() int64 { return a.flowsOpened }

// FlowsClosed returns the lifecycle ledger's closed count.
func (a *Auditor) FlowsClosed() int64 { return a.flowsClosed }

// FlowsOpen returns how many dynamic flows are currently open.
func (a *Auditor) FlowsOpen() int64 { return a.flowsOpened - a.flowsClosed }

// Created returns the ledger's created count (telemetry and tests).
func (a *Auditor) Created() int64 { return a.created }

// Consumed returns the ledger's consumed count (telemetry and tests).
func (a *Auditor) Consumed() int64 { return a.consumed }

// RegisterNet adds a network-element probe to the conservation ledger.
// The probe is consulted at Finish and when rendering violation reports,
// never on the per-packet path.
func (a *Auditor) RegisterNet(probe func() NetSample) {
	a.probes = append(a.probes, probe)
}

// Resident returns the packets the registered network elements report
// still inside them (queued, serializing or propagating).
func (a *Auditor) Resident() int64 {
	var resident int64
	for _, s := range a.collect() {
		resident += s.Resident
	}
	return resident
}

// OnFinish registers an end-of-run invariant owned by one layer. Finish
// runs every registered check in registration order; a non-nil error
// becomes a violation attributed to the given layer and rule.
func (a *Auditor) OnFinish(layer, rule string, fn func() error) {
	a.finals = append(a.finals, finishCheck{layer: layer, rule: rule, fn: fn})
}

// Failf raises a violation: it panics with a *Violation carrying the rule,
// the formatted detail, the simulation time and a full counter snapshot.
func (a *Auditor) Failf(layer, rule, format string, args ...any) {
	v := &Violation{
		Layer:    layer,
		Rule:     rule,
		ConfigID: a.configID,
		SimNanos: a.now(),
		Detail:   fmt.Sprintf(format, args...),
		Counters: a.snapshot(),
	}
	if a.flight != nil {
		v.Trace = a.flight()
	}
	panic(v)
}

// Checkf is Failf gated on a condition: it raises the violation when ok is
// false. The condition is evaluated by the caller, so a disabled (nil
// auditor) path pays nothing.
func (a *Auditor) Checkf(ok bool, layer, rule, format string, args ...any) {
	if !ok {
		a.Failf(layer, rule, format, args...)
	}
}

// collect refreshes the scratch sample slice from every probe.
func (a *Auditor) collect() []NetSample {
	a.samples = a.samples[:0]
	for _, p := range a.probes {
		a.samples = append(a.samples, p())
	}
	return a.samples
}

// snapshot renders the ledger and every probe for a violation report.
func (a *Auditor) snapshot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  ledger: created=%d consumed=%d", a.created, a.consumed)
	if a.flowsOpened > 0 {
		fmt.Fprintf(&b, "\n  flows:  opened=%d closed=%d open=%d",
			a.flowsOpened, a.flowsClosed, a.flowsOpened-a.flowsClosed)
	}
	var dropped, resident int64
	for _, s := range a.collect() {
		fmt.Fprintf(&b, "\n  element %-12s dropped=%-8d resident=%d", s.Name, s.Dropped, s.Resident)
		dropped += s.Dropped
		resident += s.Resident
	}
	if len(a.probes) > 0 {
		fmt.Fprintf(&b, "\n  totals: dropped=%d resident=%d balance=%d",
			dropped, resident, a.created-a.consumed-dropped-resident)
	}
	return b.String()
}

// Finish runs every registered end-of-run check and then settles the
// conservation ledger: every packet created by an endpoint must have been
// consumed by an endpoint, destroyed by an accounted drop, or still be
// resident in a network element. Any imbalance — including one caused by a
// production drop counter that was not incremented — raises a violation.
func (a *Auditor) Finish() {
	for _, fc := range a.finals {
		if err := fc.fn(); err != nil {
			a.Failf(fc.layer, fc.rule, "%v", err)
		}
	}
	if a.flowsClosed > a.flowsOpened {
		a.Failf("audit", "flow-lifecycle",
			"closed=%d flows but only opened=%d", a.flowsClosed, a.flowsOpened)
	}
	var dropped, resident int64
	for _, s := range a.collect() {
		if s.Dropped < 0 || s.Resident < 0 {
			a.Failf("audit", "negative-sample",
				"element %s reports dropped=%d resident=%d", s.Name, s.Dropped, s.Resident)
		}
		dropped += s.Dropped
		resident += s.Resident
	}
	if balance := a.created - a.consumed - dropped - resident; balance != 0 {
		a.Failf("audit", "packet-conservation",
			"created=%d != consumed=%d + dropped=%d + resident=%d (off by %d)",
			a.created, a.consumed, dropped, resident, balance)
	}
}
