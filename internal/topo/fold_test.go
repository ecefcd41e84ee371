package topo_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/flows"
	"repro/internal/topo"
	"repro/internal/units"
)

// foldCorpus is the configurations TestFoldMatchesUnfolded runs: the grid
// slice of five pairings × three AQMs × four bandwidths at 2 × BDP, the
// three multi-hop presets, and one config each for open-loop mice, a link
// flap, delayed ACKs and path loss, all at seeds 1 and 2 or seed 1. Rates
// of 10 Gbps and up run 100 ms over a 5 ms RTT, so their flows leave slow
// start and fill the link.
func foldCorpus(t *testing.T) []experiment.Config {
	t.Helper()
	var cfgs []experiment.Config
	for _, bw := range []units.Bandwidth{100 * units.MegabitPerSec, units.GigabitPerSec, 10 * units.GigabitPerSec, 25 * units.GigabitPerSec} {
		for _, pr := range experiment.PaperPairings()[:5] {
			for _, q := range []aqm.Kind{aqm.KindFIFO, aqm.KindRED, aqm.KindFQCoDel} {
				for seed := uint64(1); seed <= 2; seed++ {
					c := experiment.Config{Pairing: pr, AQM: q, QueueBDP: 2, Bottleneck: bw, Seed: seed, Duration: time.Second}
					if bw >= 10*units.GigabitPerSec {
						c.RTT, c.Duration, c.StartSpread = 5*time.Millisecond, 100*time.Millisecond, 10*time.Millisecond
					}
					cfgs = append(cfgs, c)
				}
			}
		}
	}
	base := experiment.Config{
		Pairing: experiment.PaperPairings()[4], AQM: aqm.KindFIFO, QueueBDP: 2,
		Bottleneck: 100 * units.MegabitPerSec, Duration: 2 * time.Second, Seed: 1,
	}
	for _, spec := range []topo.Spec{topo.ReversePathSpec(0.004, 64*1024), topo.ParkingLotSpec(3), topo.CrossTrafficSpec("cubic")} {
		for seed := uint64(1); seed <= 2; seed++ {
			c := base
			c.Topology, c.Seed = &spec, seed
			cfgs = append(cfgs, c)
		}
	}
	flap, err := faults.Parse("flap:at=800ms,down=100ms")
	if err != nil {
		t.Fatal(err)
	}
	mice, dack, flapped, lossy := base, base, base, base
	// Mice at 25 Gbps end in short segments that trail full ones by less
	// than the core hop needs for the full one: the short segment folds and
	// waits for the core hop, and so may the packets behind it.
	mice.Flows = &flows.Spec{Populations: []flows.Population{{Name: "mice", MeanArrival: time.Millisecond}}}
	mice.Bottleneck, mice.RTT, mice.Duration = 25*units.GigabitPerSec, 5*time.Millisecond, 150*time.Millisecond
	dack.DelayedAck = true
	flapped.Faults = flap
	lossy.PathLoss = 0.001
	return append(cfgs, mice, dack, flapped, lossy)
}

// runCorpus runs every config on a few goroutines.
func runCorpus(t *testing.T, cfgs []experiment.Config) []experiment.Result {
	t.Helper()
	out := make([]experiment.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	next := make(chan int)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = experiment.Run(cfgs[i])
			}
		}()
	}
	for i := range cfgs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", cfgs[i].ID(), err)
		}
	}
	return out
}

// science is a result's JSON with the wall clock zeroed and, unless
// withEvents, the event count too.
func science(t *testing.T, r experiment.Result, withEvents bool) []byte {
	t.Helper()
	r.Wall = 0
	if !withEvents {
		r.Events = 0
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFoldMatchesUnfolded runs the corpus with hop folding on and off.
// Folding only removes events: every result must be byte-identical with
// events zeroed, and no run may execute more events folded; the dumbbell
// and reverse-path runs must execute fewer. Audit-armed and trace-armed
// copies of every config at 1 Gbps or less, and of the mice config, where
// folded packets wait for the core hop, must equal the unarmed folded run,
// events included, and a trace-armed run's rings must hold the same
// records folded and unfolded. Fails if a packet folds while one of its
// upstream's own is still in propagation.
func TestFoldMatchesUnfolded(t *testing.T) {
	corpus := foldCorpus(t)
	var armed []experiment.Config
	var plainOf []int // the corpus index each armed copy arms
	for i, c := range corpus {
		if c.Bottleneck <= units.GigabitPerSec || c.Flows != nil {
			a, tr := c, c
			a.Audit = true
			tr.Trace, tr.TraceRingCap = true, 1024
			armed = append(armed, a, tr)
			plainOf = append(plainOf, i, i)
		}
	}
	all := append(corpus[:len(corpus):len(corpus)], armed...)
	folded := runCorpus(t, all)
	topo.SetNoFold(true)
	t.Cleanup(func() { topo.SetNoFold(false) })
	unfolded := runCorpus(t, all)

	var fev, uev uint64
	for i, c := range corpus {
		f, u := folded[i], unfolded[i]
		fev, uev = fev+f.Events, uev+u.Events
		if a, b := science(t, f, false), science(t, u, false); !bytes.Equal(a, b) {
			t.Errorf("%s: folding changed the result:\n  folded   %s\n  unfolded %s", c.ID(), a, b)
		}
		dumbbell := c.Topology == nil || strings.HasPrefix(c.Topology.Name, "reverse-path")
		if f.Events > u.Events || dumbbell && f.Events == u.Events {
			t.Errorf("%s: %d events folded, %d unfolded", c.ID(), f.Events, u.Events)
		}
	}
	for j, a := range armed {
		i := len(corpus) + j
		plain := folded[plainOf[j]]
		if x, y := science(t, folded[i], true), science(t, plain, true); !bytes.Equal(x, y) {
			t.Errorf("%s (audit %v, trace %v): arming changed the folded run:\n  armed   %s\n  unarmed %s",
				a.ID(), a.Audit, a.Trace, x, y)
		}
		if a.Trace && !reflect.DeepEqual(folded[i].Trace, unfolded[i].Trace) {
			t.Errorf("%s: trace rings differ folded and unfolded", a.ID())
		}
	}
	t.Logf("%d configs and %d armed copies, each run folded and unfolded; corpus events %d folded, %d unfolded",
		len(corpus), len(armed), fev, uev)
}
