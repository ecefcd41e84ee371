package experiment

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/faults"
	"repro/internal/topo"
	"repro/internal/units"
)

// TestMigrationDumbbellByteIdentity replays two golden sets and requires
// every result to serialize to the exact same JSON (wall time aside, which
// measures the host, not the simulation).
//
// dumbbell_seed.json was produced by `cmd/sweep` before internal/topo was
// rewritten: the dumbbell preset Spec driving the graph builder must
// reproduce the hard-wired dumbbell byte-for-byte.
//
// cca_seed.json pins the controllers no other golden holds — BBRv1, BBRv2
// and H-TCP — at 1 Gbps for 12 s (longer than both BBR min-RTT windows)
// with seed 3. It was recorded before BBRv1 and BBRv2 were folded onto one
// shared core. Rows 1, 2, 5, 6, 8 and 9 are the seed-3 rows of
//
//	sweep -bws 1Gbps -duration 12s -seeds 3 -aqms fifo -queues 4 -pairings bbr1:cubic,bbr2:cubic
//	sweep -bws 1Gbps -duration 12s -seeds 3 -aqms fifo -queues 2 -pairings bbr1:bbr2 -faults flap
//	sweep -bws 1Gbps -duration 12s -seeds 3 -aqms fifo -queues 2 -pairings htcp:cubic
//	sweep -bws 1Gbps -duration 12s -seeds 3 -aqms fifo -queues 2 -pairings bbr1:bbr2 -faults rttstep:at=5s,delay=300ms
//	sweep -bws 1Gbps -duration 12s -seeds 3 -aqms fq_codel -queues 2 -pairings htcp:cubic
//
// Rows 3 (bbr1:bbr2, RED, 16×BDP), 4 (bbr2:bbr2, FQ-CoDel, 0.5×BDP) and 7
// (bbr2:cubic, RED, 4×BDP) run with ECN, which no sweep flag sets, so the
// file was written by passing the nine Configs through Run and SaveFile;
// the sweep rows match it byte for byte.
//
// Each of these one-line changes moves at least one row: bbrProbeRTTTime
// 200→210 ms, bbr2Headroom 0.85→0.8, bbr2LossThresh 0.02→0.03,
// bbr2ECNThresh 0.5→0.6, bbrPacingGainCycle[0] 1.25→1.3, no conservation
// round after an RTO, htcpBetaMax 0.8→0.7. Rows 7–9 exist because three of
// them moved none of rows 1–6: row 7 catches bbr2ECNThresh, row 8 the
// conservation round (the flap's RTOs are never spurious, so the first ACK
// after one already opens a new round; the RTT step's are), row 9
// htcpBetaMax (FQ-CoDel keeps rttMin/rttMax above 0.8, so the clamp binds).
func TestMigrationDumbbellByteIdentity(t *testing.T) {
	for _, golden := range []struct {
		file string
		n    int
	}{
		{"testdata/migration/dumbbell_seed.json", 6},
		{"testdata/migration/cca_seed.json", 9},
	} {
		rs, err := LoadFile(golden.file)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Results) != golden.n {
			t.Fatalf("%s has %d results, want %d", golden.file, len(rs.Results), golden.n)
		}
		for i, want := range rs.Results {
			got, err := Run(want.Config)
			if err != nil {
				t.Fatalf("%s result %d (%s): %v", golden.file, i, want.Config.ID(), err)
			}
			got.Wall, want.Wall = 0, 0
			gb, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			wb, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb, wb) {
				t.Errorf("%s result %d (%s): diverged from the golden\n got: %s\nwant: %s",
					golden.file, i, want.Config.ID(), gb, wb)
			}
		}
	}
}

// TestMigrationLegacyKeysStable: configurations without a Topology field
// must keep the exact Config.Key() they had before the topology field
// existed — the sweepd result cache and checkpoint journals are keyed by
// it. The hashes below were pinned from the pre-refactor tree.
func TestMigrationLegacyKeysStable(t *testing.T) {
	cases := []struct {
		cfg Config
		key string
	}{
		{
			Config{Pairing: Pairing{CCA1: cca.BBRv1, CCA2: cca.Cubic}, AQM: aqm.KindFIFO,
				QueueBDP: 2, Bottleneck: 100 * units.MegabitPerSec, Seed: 1},
			"8a599272ed1c802f",
		},
		{
			Config{Pairing: Pairing{CCA1: cca.Cubic, CCA2: cca.Cubic}, AQM: aqm.KindRED,
				QueueBDP: 16, Bottleneck: units.GigabitPerSec, Seed: 3, Duration: 6 * time.Second},
			"fc51209ffd0eabc6",
		},
		{
			Config{Pairing: Pairing{CCA1: cca.Reno, CCA2: cca.Reno}, AQM: aqm.KindFQCoDel,
				QueueBDP: 0.5, Bottleneck: 10 * units.GigabitPerSec, Seed: 2, ECN: true, DelayedAck: true,
				Faults: &faults.Profile{Flaps: []faults.Flap{{At: time.Second, Down: 100 * time.Millisecond}}}},
			"eeed232b32046c6e",
		},
	}
	for i, c := range cases {
		if got := c.cfg.Key(); got != c.key {
			t.Errorf("case %d (%s): Key() = %q, want pinned legacy %q",
				i, c.cfg.ID(), got, c.key)
		}
	}
}

// TestMigrationDumbbellTopologyFoldsAway: explicitly requesting the
// dumbbell preset (as `-topo dumbbell` does) must be identity-equivalent
// to the nil legacy default — same Key, same ID, Topology normalized away.
func TestMigrationDumbbellTopologyFoldsAway(t *testing.T) {
	base := Config{Pairing: Pairing{CCA1: cca.BBRv1, CCA2: cca.Cubic}, AQM: aqm.KindFIFO,
		QueueBDP: 2, Bottleneck: 100 * units.MegabitPerSec, Seed: 1}
	spec := topo.DumbbellSpec()
	explicit := base
	explicit.Topology = &spec

	if n := explicit.Normalize(); n.Topology != nil {
		t.Fatal("canonical dumbbell Topology survived Normalize")
	}
	if explicit.Key() != base.Key() {
		t.Errorf("dumbbell topology changed Key: %s vs %s", explicit.Key(), base.Key())
	}
	if explicit.Normalize().ID() != base.Normalize().ID() {
		t.Errorf("dumbbell topology changed ID: %s vs %s",
			explicit.Normalize().ID(), base.Normalize().ID())
	}

	// A non-dumbbell graph is science: it must move both Key and ID.
	pl := topo.ParkingLotSpec(3)
	graph := base
	graph.Topology = &pl
	if graph.Key() == base.Key() {
		t.Error("parking-lot topology did not change Key")
	}
	if n := graph.Normalize(); n.Topology == nil {
		t.Fatal("parking-lot Topology normalized away")
	} else if id := n.ID(); id == base.Normalize().ID() {
		t.Errorf("parking-lot topology did not change ID: %s", id)
	} else if want := base.Normalize().ID() + "_parking-lot-3"; id != want {
		t.Errorf("parking-lot ID = %q, want %q", id, want)
	}
}
