// Package aqm implements the three active-queue-management disciplines the
// paper evaluates on the bottleneck router — FIFO (tail drop), RED (Floyd &
// Jacobson 1993, with Linux-style "gentle" mode), and FQ-CoDel (RFC 8290 on
// top of the RFC 8289 CoDel control law) — plus standalone CoDel, behind a
// common Queue interface the router port drains. FIFO, RED and CoDel share
// one byte-bounded buffer; every discipline counts and traces its drops and
// ECN marks through one ledger.
package aqm

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Queue is a router egress queue. Enqueue may drop (returning false) or mark
// ECN; Dequeue may also drop internally (CoDel) and returns nil when empty.
// Implementations are not safe for concurrent use: one simulation goroutine
// owns the whole network.
type Queue interface {
	// Enqueue offers p to the queue at time now. It returns false if the
	// packet was dropped; the queue releases dropped packets itself.
	Enqueue(now sim.Time, p *packet.Packet) bool
	// Dequeue removes the next packet to transmit, or nil if empty. On an
	// empty queue it must not read now: a fused port (netem) makes the
	// Dequeue an idle serializer owes the discipline at the next arrival
	// rather than when the serializer freed up.
	Dequeue(now sim.Time) *packet.Packet
	// Len returns the number of queued packets.
	Len() int
	// Bytes returns the queued byte count.
	Bytes() units.ByteSize
	// Capacity returns the configured byte limit.
	Capacity() units.ByteSize
	// Stats returns cumulative counters.
	Stats() Stats
	// Name identifies the discipline ("fifo", "red", "fq_codel").
	Name() string
}

// SelfChecker is the optional deep-validation surface a discipline exposes
// to the audit layer. SelfCheck walks the discipline's internal structures
// (rings, flow lists, EWMA state) and returns a non-nil error when any
// internal invariant is broken: negative or capacity-exceeding occupancy,
// byte totals that disagree with the queued packets, counters that do not
// balance (offered = dequeued + dropped + queued), or scheduler-list
// corruption. It is deliberately O(queue length) — the caller (the audited
// router port) invokes it periodically, not per packet.
//
// The interface lives here, not in the audit package, so aqm keeps zero
// repo-internal dependencies and any discipline can be validated without an
// import cycle.
type SelfChecker interface {
	SelfCheck() error
}

// TraceSink is the optional telemetry surface a discipline implements to
// report its drops and ECN marks — with the per-discipline reason (tail
// overflow, RED early vs forced, CoDel control law, fat-flow eviction) —
// into the owning port's trace ring. The traced router port installs its
// PortTracer here at construction; a discipline without one (or with a nil
// tracer) emits nothing. Like SelfChecker, the interface lives in this
// package so aqm depends only on the telemetry leaf and no cycle forms.
type TraceSink interface {
	SetTrace(*telemetry.PortTracer)
}

// Stats are cumulative counters every discipline maintains.
type Stats struct {
	Enqueued uint64 // packets accepted
	Dequeued uint64 // packets handed to the link
	Dropped  uint64 // packets dropped (at enqueue or dequeue)
	Marked   uint64 // packets ECN-marked instead of dropped
	// DroppedBytes counts bytes lost to drops.
	DroppedBytes units.ByteSize
}

// Kind names a queue discipline for configuration and reporting.
type Kind string

// The paper's three AQMs, plus standalone CoDel (single queue, RFC 8289
// law without the fair-queuing layer) for validation and ablation runs.
const (
	KindFIFO    Kind = "fifo"
	KindRED     Kind = "red"
	KindFQCoDel Kind = "fq_codel"
	KindCoDel   Kind = "codel"
)

// Kinds returns the paper's AQM set in presentation order. Standalone CoDel
// is available by name but is not part of the paper's measurement grid.
func Kinds() []Kind { return []Kind{KindFIFO, KindRED, KindFQCoDel} }

// ParseKind validates a discipline name.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case KindFIFO, KindRED, KindFQCoDel, KindCoDel:
		return Kind(s), nil
	}
	return "", fmt.Errorf("aqm: unknown discipline %q (want fifo, red, fq_codel or codel)", s)
}

// Config carries the knobs shared by all disciplines plus per-discipline
// parameter overrides (zero values select the defaults documented on each
// constructor).
type Config struct {
	Kind     Kind
	Capacity units.ByteSize // byte limit (the paper's N × BDP)
	ECN      bool           // mark ECT packets instead of dropping where the law allows

	RED     REDParams
	FQCoDel FQCoDelParams
	CoDel   CoDelParams
}

// New constructs the configured discipline.
func New(cfg Config) (Queue, error) {
	switch cfg.Kind {
	case KindFIFO, "":
		return NewFIFO(cfg.Capacity), nil
	case KindRED:
		return NewRED(cfg.Capacity, cfg.ECN, cfg.RED), nil
	case KindFQCoDel:
		return NewFQCoDel(cfg.Capacity, cfg.ECN, cfg.FQCoDel), nil
	case KindCoDel:
		return NewCoDel(cfg.Capacity, cfg.ECN, cfg.CoDel), nil
	}
	return nil, fmt.Errorf("aqm: unknown discipline %q", cfg.Kind)
}
