package topo

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/aqm"
	"repro/internal/clause"
	"repro/internal/faults"
	"repro/internal/units"
)

// Link roles. A role picks the rate, delay, and queue a link gets when the
// spec does not pin them explicitly, so one spec can be swept across the
// grid's bottleneck-bandwidth and AQM axes without rewriting every link.
const (
	// RoleBottleneck resolves to the grid's bottleneck bandwidth and the AQM
	// configuration under test.
	RoleBottleneck = "bottleneck"
	// RoleEdge resolves to the host NIC rate (EdgeBW) with a deep FIFO — the
	// injection links flows transmit into.
	RoleEdge = "edge"
	// RoleCore resolves to the backbone rate (CoreBW), never the congestion
	// point. Links with an empty role are core links.
	RoleCore = "core"
)

// Spec is a declarative, JSON-serializable network graph: nodes,
// unidirectional links, and per-sender-class static routes. It is pure data
// and part of experiment science identity — two configs with the same
// normalized spec simulate identically, and experiment.Config folds the
// spec into Config.Key. Build instantiates it on an engine.
type Spec struct {
	// Name labels the spec ("dumbbell", "parking-lot-3"); preset generators
	// set it and ID prefers it over the content hash.
	Name  string     `json:"name,omitempty"`
	Nodes []NodeSpec `json:"nodes"`
	Links []LinkSpec `json:"links"`
	// Senders declares the traffic classes. Class i of a built Network
	// corresponds to Senders[i]; experiment.Run maps the grid pairing onto
	// classes by index (0 → CCA1, others → CCA2) unless a class pins its CCA.
	Senders []SenderSpec `json:"senders"`
	// Monitor names the link whose queue fills the legacy single-bottleneck
	// result fields and receives Config.Faults. Empty selects the first
	// bottleneck-role link.
	Monitor string `json:"monitor,omitempty"`
}

// NodeSpec is a named vertex. Nodes carry no behaviour of their own — all
// queueing and delay live on links — but every link endpoint must be
// declared, which is what lets Validate reject dangling references.
type NodeSpec struct {
	Name string `json:"name"`
}

// LinkSpec is one unidirectional link: a netem port at From with
// propagation toward To. Rate and delay may be pinned absolutely, scaled
// off the grid parameters, or left to the role default.
type LinkSpec struct {
	Name string `json:"name"`
	From string `json:"from"`
	To   string `json:"to"`
	// Role selects parameter defaults; see the Role constants. Empty = core.
	Role string `json:"role,omitempty"`

	// Rate pins the link rate absolutely; RateFactor scales the grid
	// bottleneck bandwidth (reverse-path uses it to constrain the ACK
	// channel proportionally). At most one may be set; zero defers to the
	// role default.
	Rate       units.Bandwidth `json:"rate_bps,omitempty"`
	RateFactor float64         `json:"rate_factor,omitempty"`

	// Delay pins the one-way propagation delay absolutely; DelayRTTFrac
	// scales the grid RTT (the dumbbell's legs are 1/8 and 1/4 of RTT).
	// Both zero means a zero-delay link.
	Delay        time.Duration `json:"delay_ns,omitempty"`
	DelayRTTFrac float64       `json:"delay_rtt_frac,omitempty"`

	// Queue overrides the role's queue. Nil keeps the role default
	// (bottleneck → the grid AQM under test, edge → deep FIFO, core →
	// effectively unbounded FIFO).
	Queue *QueueSpec `json:"queue,omitempty"`

	// PathLoss arms uniform random loss on this link. ConfigLoss marks the
	// link that additionally receives the grid Config.PathLoss (the
	// dumbbell's forward core segment).
	PathLoss   float64 `json:"path_loss,omitempty"`
	ConfigLoss bool    `json:"config_loss,omitempty"`

	// Faults arms a per-link fault timeline at build time, independent of
	// the Config.Faults profile applied to the monitor link.
	Faults *faults.Profile `json:"faults,omitempty"`
}

// QueueSpec pins a link's queue discipline. Capacity may be absolute bytes
// or a BDP multiple of the link's resolved rate × the grid RTT.
type QueueSpec struct {
	Kind     string         `json:"kind,omitempty"` // aqm kind; empty = fifo
	Capacity units.ByteSize `json:"capacity_bytes,omitempty"`
	BDP      float64        `json:"bdp,omitempty"`
	ECN      bool           `json:"ecn,omitempty"`
}

// SenderSpec is one traffic class: where its flows inject, the ordered
// links their data and ACKs traverse, and optional CCA/flow-count pins.
type SenderSpec struct {
	Name string `json:"name"`
	// Path is the ordered list of link names data packets traverse; flows
	// inject into Path[0] and the receiver sits past the last link.
	Path []string `json:"path"`
	// Return is the ordered ACK route back to the sender.
	Return []string `json:"return"`
	// CCA pins the class's congestion controller ("cubic", "bbr1", ...).
	// Empty defers to the grid pairing by class index.
	CCA string `json:"cca,omitempty"`
	// Flows pins the class's flow count; zero defers to FlowsPerSender.
	Flows int `json:"flows,omitempty"`
	// Background marks ambient cross-traffic, excluded from the legacy
	// two-sender fairness fields (still present in Result.Groups).
	Background bool `json:"background,omitempty"`
}

// Sanity bounds enforced by Validate — far above any realistic scenario,
// they exist to keep fuzzed and hostile specs from ballooning a build.
const (
	maxNodes   = 256
	maxLinks   = 256
	maxSenders = 64
	maxFlows   = 4096
)

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Normalize returns the canonical form of the spec: names trimmed, empty
// roles resolved to "core", loss probabilities clamped to [0,1] (NaN → 0,
// mirroring faults), fault profiles normalized (empty → nil), and all-zero
// queue overrides dropped. Canonical form is what ID, Key and the
// experiment identity hash see, so cosmetic spellings of the same graph
// share one identity.
func (s Spec) Normalize() Spec {
	s.Name = strings.TrimSpace(s.Name)
	s.Monitor = strings.TrimSpace(s.Monitor)
	nodes := make([]NodeSpec, len(s.Nodes))
	for i, n := range s.Nodes {
		n.Name = strings.TrimSpace(n.Name)
		nodes[i] = n
	}
	s.Nodes = nodes
	links := make([]LinkSpec, len(s.Links))
	for i, l := range s.Links {
		l.Name = strings.TrimSpace(l.Name)
		l.From = strings.TrimSpace(l.From)
		l.To = strings.TrimSpace(l.To)
		l.Role = strings.ToLower(strings.TrimSpace(l.Role))
		if l.Role == "" {
			l.Role = RoleCore
		}
		if !(l.PathLoss > 0) { // negatives and NaN clamp to 0
			l.PathLoss = 0
		} else if l.PathLoss > 1 {
			l.PathLoss = 1
		}
		if l.Queue != nil {
			q := *l.Queue
			q.Kind = strings.ToLower(strings.TrimSpace(q.Kind))
			if q == (QueueSpec{}) {
				l.Queue = nil
			} else {
				l.Queue = &q
			}
		}
		if l.Faults != nil {
			f := l.Faults.Normalize()
			if f.Empty() {
				l.Faults = nil
			} else {
				l.Faults = &f
			}
		}
		links[i] = l
	}
	s.Links = links
	senders := make([]SenderSpec, len(s.Senders))
	for i, sd := range s.Senders {
		sd.Name = strings.TrimSpace(sd.Name)
		sd.CCA = strings.ToLower(strings.TrimSpace(sd.CCA))
		if sd.Flows < 0 {
			sd.Flows = 0
		}
		path := make([]string, len(sd.Path))
		for j, ln := range sd.Path {
			path[j] = strings.TrimSpace(ln)
		}
		sd.Path = path
		ret := make([]string, len(sd.Return))
		for j, ln := range sd.Return {
			ret[j] = strings.TrimSpace(ln)
		}
		sd.Return = ret
		senders[i] = sd
	}
	s.Senders = senders
	return s
}

// Validate rejects malformed graphs: duplicate or empty names, dangling
// node references, self-loops, non-finite or negative parameters, unknown
// roles and queue kinds, routes over undeclared links, disconnected route
// steps, and routes that revisit a node (the static-route cycle guard).
// Call on a normalized spec; Build normalizes and validates internally.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	if len(s.Nodes) == 0 || len(s.Links) == 0 {
		return fmt.Errorf("topo: spec needs at least one node and one link")
	}
	if len(s.Senders) == 0 {
		return fmt.Errorf("topo: spec declares no senders")
	}
	if len(s.Nodes) > maxNodes || len(s.Links) > maxLinks || len(s.Senders) > maxSenders {
		return fmt.Errorf("topo: spec too large (max %d nodes, %d links, %d senders)",
			maxNodes, maxLinks, maxSenders)
	}
	nodes := make(map[string]bool, len(s.Nodes))
	for _, n := range s.Nodes {
		if n.Name == "" {
			return fmt.Errorf("topo: node with empty name")
		}
		if nodes[n.Name] {
			return fmt.Errorf("topo: duplicate node %q", n.Name)
		}
		nodes[n.Name] = true
	}
	links := make(map[string]*LinkSpec, len(s.Links))
	for i := range s.Links {
		l := &s.Links[i]
		if l.Name == "" {
			return fmt.Errorf("topo: link %d has empty name", i)
		}
		if _, dup := links[l.Name]; dup {
			return fmt.Errorf("topo: duplicate link %q", l.Name)
		}
		if !nodes[l.From] {
			return fmt.Errorf("topo: link %q: unknown node %q", l.Name, l.From)
		}
		if !nodes[l.To] {
			return fmt.Errorf("topo: link %q: unknown node %q", l.Name, l.To)
		}
		if l.From == l.To {
			return fmt.Errorf("topo: link %q: self-loop at %q", l.Name, l.From)
		}
		switch l.Role {
		case RoleBottleneck, RoleEdge, RoleCore:
		default:
			return fmt.Errorf("topo: link %q: unknown role %q (want bottleneck, edge or core)",
				l.Name, l.Role)
		}
		if l.Rate < 0 {
			return fmt.Errorf("topo: link %q: negative rate", l.Name)
		}
		if !finite(l.RateFactor) || l.RateFactor < 0 {
			return fmt.Errorf("topo: link %q: rate factor must be finite and non-negative", l.Name)
		}
		if l.Rate > 0 && l.RateFactor > 0 {
			return fmt.Errorf("topo: link %q: rate and rate_factor are mutually exclusive", l.Name)
		}
		if l.Delay < 0 {
			return fmt.Errorf("topo: link %q: negative delay", l.Name)
		}
		if !finite(l.DelayRTTFrac) || l.DelayRTTFrac < 0 {
			return fmt.Errorf("topo: link %q: delay fraction must be finite and non-negative", l.Name)
		}
		if l.Delay > 0 && l.DelayRTTFrac > 0 {
			return fmt.Errorf("topo: link %q: delay and delay_rtt_frac are mutually exclusive", l.Name)
		}
		if q := l.Queue; q != nil {
			if q.Kind != "" {
				if _, err := aqm.ParseKind(q.Kind); err != nil {
					return fmt.Errorf("topo: link %q: %w", l.Name, err)
				}
			}
			if q.Capacity < 0 {
				return fmt.Errorf("topo: link %q: negative queue capacity", l.Name)
			}
			if !finite(q.BDP) || q.BDP < 0 {
				return fmt.Errorf("topo: link %q: queue bdp must be finite and non-negative", l.Name)
			}
		}
		links[l.Name] = l
	}
	if s.Monitor != "" {
		if _, ok := links[s.Monitor]; !ok {
			return fmt.Errorf("topo: monitor names unknown link %q", s.Monitor)
		}
	}
	senderNames := make(map[string]bool, len(s.Senders))
	totalFlows := 0
	for i, sd := range s.Senders {
		if sd.Name == "" {
			return fmt.Errorf("topo: sender %d has empty name", i)
		}
		if senderNames[sd.Name] {
			return fmt.Errorf("topo: duplicate sender %q", sd.Name)
		}
		senderNames[sd.Name] = true
		if sd.Flows > maxFlows {
			return fmt.Errorf("topo: sender %q: flows exceeds %d", sd.Name, maxFlows)
		}
		totalFlows += sd.Flows
		if err := validRoute(sd.Name, "path", sd.Path, links); err != nil {
			return err
		}
		if err := validRoute(sd.Name, "return", sd.Return, links); err != nil {
			return err
		}
	}
	if totalFlows > maxFlows {
		return fmt.Errorf("topo: total pinned flows exceed %d", maxFlows)
	}
	return nil
}

// validRoute checks one static route: non-empty, every link declared, each
// hop starting where the previous one ended, and no node visited twice —
// a repeated node is a routing cycle, which a static per-flow route can
// never legitimately contain.
func validRoute(sender, kind string, route []string, links map[string]*LinkSpec) error {
	if len(route) == 0 {
		return fmt.Errorf("topo: sender %q: empty %s route", sender, kind)
	}
	visited := make(map[string]bool, len(route)+1)
	var prev *LinkSpec
	for _, name := range route {
		l, ok := links[name]
		if !ok {
			return fmt.Errorf("topo: sender %q: %s route uses unknown link %q", sender, kind, name)
		}
		if prev != nil && prev.To != l.From {
			return fmt.Errorf("topo: sender %q: %s route breaks at %q→%q (node %q != %q)",
				sender, kind, prev.Name, l.Name, prev.To, l.From)
		}
		if visited[l.From] {
			return fmt.Errorf("topo: sender %q: %s route revisits node %q (cycle)",
				sender, kind, l.From)
		}
		visited[l.From] = true
		prev = l
	}
	if visited[prev.To] {
		return fmt.Errorf("topo: sender %q: %s route revisits node %q (cycle)",
			sender, kind, prev.To)
	}
	return nil
}

// monitorLink resolves the monitor link name on a normalized, valid spec:
// the explicit Monitor, else the first bottleneck-role link, else the
// first link.
func (s *Spec) monitorLink() string {
	if s.Monitor != "" {
		return s.Monitor
	}
	for _, l := range s.Links {
		if l.Role == RoleBottleneck {
			return l.Name
		}
	}
	return s.Links[0].Name
}

// Canonical renders the normalized spec as canonical JSON — the byte form
// the identity hash covers.
func (s *Spec) Canonical() []byte {
	n := s.Normalize()
	data, err := json.Marshal(n)
	if err != nil { // pure data; cannot happen
		panic(err)
	}
	return data
}

// Key is the spec's content address: a hex digest of the canonical JSON.
func (s *Spec) Key() string {
	sum := sha256.Sum256(s.Canonical())
	return hex.EncodeToString(sum[:])[:16]
}

// ID renders a short identifier for experiment IDs and filenames: the
// preset name when the spec has one, otherwise "graph-" plus the content
// hash.
func (s *Spec) ID() string {
	if s == nil {
		return ""
	}
	if n := s.Normalize(); n.Name != "" {
		return sanitizeID(n.Name)
	}
	return "graph-" + s.Key()[:8]
}

func sanitizeID(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		case r == '-', r == '.', r == '_':
			return r
		}
		return '-'
	}, name)
}

// IsDumbbell reports whether the spec is (canonically) the preset paper
// dumbbell. experiment.Config.Normalize uses this to drop an explicit
// dumbbell spec from the config, keeping `-topo dumbbell` byte- and
// key-identical to a legacy config with no topology at all.
func IsDumbbell(s *Spec) bool {
	if s == nil {
		return true
	}
	return string(s.Canonical()) == string(dumbbellCanonical())
}

// dumbbellCanonical is computed once: IsDumbbell runs from concurrent
// Config.Normalize calls (sweep workers, sweepd handlers).
var dumbbellCanonical = sync.OnceValue(canonicalDumbbell)

func canonicalDumbbell() []byte {
	sp := DumbbellSpec()
	return sp.Canonical()
}

func nodeList(names ...string) []NodeSpec {
	out := make([]NodeSpec, len(names))
	for i, n := range names {
		out[i] = NodeSpec{Name: n}
	}
	return out
}

// DumbbellSpec returns the paper's Fig. 1 dumbbell as a declarative spec:
// two client nodes feeding router r1, the r1→r2 bottleneck under test, two
// server nodes past r2, and an uncongested reverse core for ACKs. Link
// order mirrors the historical wiring order exactly — port construction
// order determines telemetry ring order and per-port RNG derivation, so
// this spec builds byte-identical results to the pre-spec dumbbell.
func DumbbellSpec() Spec {
	return Spec{
		Name:  "dumbbell",
		Nodes: nodeList("c1", "c2", "r1", "r2", "srv", "cli", "s1", "s2"),
		Links: []LinkSpec{
			{Name: "r2->srv", From: "r2", To: "srv", Role: RoleCore, DelayRTTFrac: 0.125, ConfigLoss: true},
			{Name: "r1->r2", From: "r1", To: "r2", Role: RoleBottleneck, DelayRTTFrac: 0.25},
			{Name: "c1->r1", From: "c1", To: "r1", Role: RoleEdge, DelayRTTFrac: 0.125},
			{Name: "c2->r1", From: "c2", To: "r1", Role: RoleEdge, DelayRTTFrac: 0.125},
			{Name: "r1->cli", From: "r1", To: "cli", Role: RoleCore, DelayRTTFrac: 0.125},
			{Name: "r2->r1", From: "r2", To: "r1", Role: RoleCore, DelayRTTFrac: 0.25},
			{Name: "s1->r2", From: "s1", To: "r2", Role: RoleEdge, DelayRTTFrac: 0.125},
			{Name: "s2->r2", From: "s2", To: "r2", Role: RoleEdge, DelayRTTFrac: 0.125},
		},
		Senders: []SenderSpec{
			{Name: "s1", Path: []string{"c1->r1", "r1->r2", "r2->srv"},
				Return: []string{"s1->r2", "r2->r1", "r1->cli"}},
			{Name: "s2", Path: []string{"c2->r1", "r1->r2", "r2->srv"},
				Return: []string{"s2->r2", "r2->r1", "r1->cli"}},
		},
		Monitor: "r1->r2",
	}
}

// ParkingLotSpec returns an N-bottleneck parking lot: one long flow class
// traverses every bottleneck b1..bN while a per-hop class enters and exits
// at each hop, contending on exactly one bottleneck. The long class is
// class 0 (the grid pairing's CCA1); hop classes take CCA2. Monitor is b1.
func ParkingLotSpec(hops int) Spec {
	if hops < 1 {
		hops = 1
	}
	r := func(i int) string { return fmt.Sprintf("r%d", i) }
	s := Spec{
		Name:    fmt.Sprintf("parking-lot-%d", hops),
		Monitor: "b1",
	}
	s.Nodes = nodeList("src", "dst")
	for i := 0; i <= hops; i++ {
		s.Nodes = append(s.Nodes, NodeSpec{Name: r(i)})
	}
	for i := 1; i <= hops; i++ {
		s.Nodes = append(s.Nodes,
			NodeSpec{Name: fmt.Sprintf("h%ds", i)},
			NodeSpec{Name: fmt.Sprintf("h%dd", i)})
	}
	// Bottleneck delays split the long path's one-way RTT/2 across the
	// chain: 1/8 on each end leg, the rest shared by the bottlenecks.
	bFrac := 0.25 / float64(hops)

	long := SenderSpec{Name: "long", Path: []string{"src->r0"}}
	s.Links = append(s.Links, LinkSpec{
		Name: "src->r0", From: "src", To: r(0), Role: RoleEdge, DelayRTTFrac: 0.125})
	for i := 1; i <= hops; i++ {
		b := fmt.Sprintf("b%d", i)
		s.Links = append(s.Links, LinkSpec{
			Name: b, From: r(i - 1), To: r(i), Role: RoleBottleneck, DelayRTTFrac: bFrac})
		long.Path = append(long.Path, b)
	}
	last := fmt.Sprintf("%s->dst", r(hops))
	s.Links = append(s.Links, LinkSpec{
		Name: last, From: r(hops), To: "dst", Role: RoleCore, DelayRTTFrac: 0.125})
	long.Path = append(long.Path, last)

	// Per-hop entry/exit links.
	for i := 1; i <= hops; i++ {
		s.Links = append(s.Links,
			LinkSpec{Name: fmt.Sprintf("h%ds->%s", i, r(i-1)), From: fmt.Sprintf("h%ds", i),
				To: r(i - 1), Role: RoleEdge, DelayRTTFrac: 0.125},
			LinkSpec{Name: fmt.Sprintf("%s->h%dd", r(i), i), From: r(i),
				To: fmt.Sprintf("h%dd", i), Role: RoleCore, DelayRTTFrac: 0.125})
	}

	// Reverse (ACK) core: dst back down the chain to src, plus per-hop
	// host returns that share the reverse routers.
	s.Links = append(s.Links, LinkSpec{
		Name: "dst->" + r(hops), From: "dst", To: r(hops), Role: RoleEdge, DelayRTTFrac: 0.125})
	long.Return = []string{"dst->" + r(hops)}
	for i := hops; i >= 1; i-- {
		rev := fmt.Sprintf("%s->%s", r(i), r(i-1))
		s.Links = append(s.Links, LinkSpec{
			Name: rev, From: r(i), To: r(i - 1), Role: RoleCore, DelayRTTFrac: bFrac})
		long.Return = append(long.Return, rev)
	}
	s.Links = append(s.Links, LinkSpec{
		Name: r(0) + "->src", From: r(0), To: "src", Role: RoleCore, DelayRTTFrac: 0.125})
	long.Return = append(long.Return, r(0)+"->src")
	for i := 1; i <= hops; i++ {
		s.Links = append(s.Links,
			LinkSpec{Name: fmt.Sprintf("h%dd->%s", i, r(i)), From: fmt.Sprintf("h%dd", i),
				To: r(i), Role: RoleEdge, DelayRTTFrac: 0.125},
			LinkSpec{Name: fmt.Sprintf("%s->h%ds", r(i-1), i), From: r(i - 1),
				To: fmt.Sprintf("h%ds", i), Role: RoleCore, DelayRTTFrac: 0.125})
	}

	s.Senders = append(s.Senders, long)
	for i := 1; i <= hops; i++ {
		s.Senders = append(s.Senders, SenderSpec{
			Name: fmt.Sprintf("hop%d", i),
			Path: []string{
				fmt.Sprintf("h%ds->%s", i, r(i-1)),
				fmt.Sprintf("b%d", i),
				fmt.Sprintf("%s->h%dd", r(i), i),
			},
			Return: []string{
				fmt.Sprintf("h%dd->%s", i, r(i)),
				fmt.Sprintf("%s->%s", r(i), r(i-1)),
				fmt.Sprintf("%s->h%ds", r(i-1), i),
			},
		})
	}
	return s
}

// ReversePathSpec returns the dumbbell with a constrained return core: the
// r2→r1 ACK channel is throttled to factor × the forward bottleneck rate
// behind a small FIFO, so acknowledgements themselves congest — the
// classic reverse-path/ACK-congestion scenario. buf is the return queue in
// bytes (0 selects 64 KB).
func ReversePathSpec(factor float64, buf units.ByteSize) Spec {
	if !(factor > 0) {
		factor = 0.01
	}
	if buf <= 0 {
		buf = 64 * 1024
	}
	s := DumbbellSpec()
	s.Name = fmt.Sprintf("reverse-path-x%g", factor)
	for i := range s.Links {
		if s.Links[i].Name == "r2->r1" {
			s.Links[i].RateFactor = factor
			s.Links[i].Queue = &QueueSpec{Kind: string(aqm.KindFIFO), Capacity: buf}
		}
	}
	return s
}

// CrossTrafficSpec returns the dumbbell plus a background elephant class
// sharing the bottleneck hop: a third sender with its own edge hosts whose
// flows cross r1→r2 alongside the measured pair. cc pins the background
// CCA (empty = cubic).
func CrossTrafficSpec(cc string) Spec {
	cc = strings.ToLower(strings.TrimSpace(cc))
	if cc == "" {
		cc = "cubic"
	}
	s := DumbbellSpec()
	s.Name = "cross-traffic-" + cc
	s.Nodes = append(s.Nodes, NodeSpec{Name: "cx"}, NodeSpec{Name: "cxd"})
	s.Links = append(s.Links,
		LinkSpec{Name: "cx->r1", From: "cx", To: "r1", Role: RoleEdge, DelayRTTFrac: 0.125},
		LinkSpec{Name: "r2->cxd", From: "r2", To: "cxd", Role: RoleCore, DelayRTTFrac: 0.125},
		LinkSpec{Name: "cxd->r2", From: "cxd", To: "r2", Role: RoleEdge, DelayRTTFrac: 0.125},
		LinkSpec{Name: "r1->cx", From: "r1", To: "cx", Role: RoleCore, DelayRTTFrac: 0.125},
	)
	s.Senders = append(s.Senders, SenderSpec{
		Name:       "bg",
		Path:       []string{"cx->r1", "r1->r2", "r2->cxd"},
		Return:     []string{"cxd->r2", "r2->r1", "r1->cx"},
		CCA:        cc,
		Background: true,
	})
	return s
}

// Parse builds a spec from a CLI value in the clause grammar ("@file",
// inline JSON, or one preset clause). Presets and their keys (defaults in
// parentheses):
//
//	dumbbell
//	parking-lot    hops (3); "parking-lot-N" is shorthand for hops=N
//	reverse-path   factor (0.01), buf (65536 bytes)
//	cross-traffic  cca (cubic)
//
// An empty value is a nil spec (the legacy dumbbell path). Parsed specs
// are normalized and validated; "dumbbell" returns a non-nil spec that
// experiment.Config.Normalize folds away.
func Parse(spec string) (*Spec, error) {
	s, err := clause.Parse("topo", spec, apply)
	if s == nil || err != nil {
		return nil, err
	}
	n := s.Normalize()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return &n, nil
}

// apply resolves the one preset clause a topology may have.
func apply(s *Spec, name string, a *clause.Args) error {
	if len(s.Nodes) > 0 {
		return fmt.Errorf("one preset per topology, got a second clause %q", name)
	}
	switch {
	case name == "dumbbell":
		*s = DumbbellSpec()
	case name == "parking-lot" || strings.HasPrefix(name, "parking-lot-"):
		def := 3
		if suffix, ok := strings.CutPrefix(name, "parking-lot-"); ok {
			n, err := strconv.Atoi(suffix)
			if err != nil {
				return fmt.Errorf("bad parking-lot hop count %q", suffix)
			}
			def = n
		}
		hops := a.Int("hops", def)
		if hops < 1 || hops > 16 {
			return fmt.Errorf("parking-lot: hops must be 1..16, got %d", hops)
		}
		*s = ParkingLotSpec(hops)
	case name == "reverse-path":
		factor := a.Float("factor", 0.01)
		if !finite(factor) || factor <= 0 || factor > 1 {
			return fmt.Errorf("reverse-path: factor must be in (0,1]")
		}
		buf := a.Int("buf", 64*1024)
		if buf <= 0 {
			return fmt.Errorf("reverse-path: buf must be positive")
		}
		*s = ReversePathSpec(factor, units.ByteSize(buf))
	case name == "cross-traffic":
		*s = CrossTrafficSpec(a.String("cca", ""))
	default:
		return fmt.Errorf(
			"unknown preset %q (want dumbbell, parking-lot[-N], reverse-path or cross-traffic)",
			name)
	}
	return nil
}
