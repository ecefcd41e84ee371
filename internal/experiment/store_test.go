package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/failpoint"
)

// journalLines returns the journal's raw non-empty record lines (the v2
// version header doesn't count — it is metadata, not a record).
func journalLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, l := range strings.Split(string(data), "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			out = append(out, l)
		}
	}
	return out
}

// TestCheckpointCompact: a journal bloated by resumes — superseded results,
// torn fragments — must shrink to one line per live config ID on Compact,
// stay appendable afterwards, and resume identically to the original.
func TestCheckpointCompact(t *testing.T) {
	cfgs := hardeningConfigs(3)
	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i int, util float64) Result {
		return Result{Config: cfgs[i].Normalize(), Utilization: util, Jain: 1, Flows: 2}
	}
	// Two generations of config 0 (last write wins), one of config 1, and a
	// torn fragment as from a crash mid-append.
	for _, res := range []Result{mk(0, 0.5), mk(1, 0.7), mk(0, 0.9)} {
		if err := ck.Append(res); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ck.f.Write([]byte(`{"config":{"pairing":`)); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	ck, err = OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	before := ck.Results()
	if len(journalLines(t, path)) != 4 { // 3 appends + healed torn line
		t.Fatalf("pre-compact journal has %d lines, want 4", len(journalLines(t, path)))
	}
	if err := ck.Compact(); err != nil {
		t.Fatal(err)
	}
	lines := journalLines(t, path)
	if len(lines) != 2 {
		t.Fatalf("compacted journal has %d lines, want 2 (one per live config):\n%s",
			len(lines), strings.Join(lines, "\n"))
	}
	if !reflect.DeepEqual(ck.Results(), before) {
		t.Fatal("Compact changed the live result set")
	}

	// The handle must still append into the compacted file.
	if err := ck.Append(mk(2, 0.8)); err != nil {
		t.Fatal(err)
	}
	if len(journalLines(t, path)) != 3 {
		t.Fatal("post-compact Append did not land in the compacted journal")
	}

	// A fresh open of the compacted journal resumes identically: every
	// config is satisfied from it, nothing re-runs, and the superseded
	// generation of config 0 is gone for good.
	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Len() != 3 {
		t.Fatalf("reloaded compacted journal has %d results, want 3", ck2.Len())
	}
	if res, ok := ck2.Lookup(cfgs[0].Key()); !ok || res.Utilization != 0.9 {
		t.Fatalf("config 0 after compact+reload: %+v, %v (want the last-written generation)", res, ok)
	}
	runs := withPanicOn(t) // counts runs, panics never
	results, err := RunAllOpts(cfgs, RunAllOptions{Workers: 2, Checkpoint: ck2})
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 0 {
		t.Fatalf("resume from compacted journal re-ran %d configs, want 0", got)
	}
	for i, res := range results {
		if res.Config.ID() != cfgs[i].Normalize().ID() {
			t.Fatalf("config %d resumed out of order", i)
		}
	}
}

// TestCheckpointCompactKeepsMode: Compact and Repair rewrite the journal
// through a temp file renamed over it, and the journal keeps its mode
// through both. (Regression: the temp file's 0600 replaced a 0644 journal.)
func TestCheckpointCompactKeepsMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	checkMode := func(what string) {
		t.Helper()
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Mode().Perm() != 0o644 {
			t.Fatalf("journal mode after %s = %v, want 0644", what, st.Mode().Perm())
		}
	}
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(path, 0o644); err != nil { // whatever the umask made it
		t.Fatal(err)
	}
	// The second result supersedes the first: a stale line to compact away.
	for _, res := range []Result{durabilityResult(1, 0.9), durabilityResult(1, 0.8)} {
		if err := ck.Append(res); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Compact(); err != nil {
		t.Fatal(err)
	}
	if after, err := os.Stat(path); err != nil || os.SameFile(before, after) {
		t.Fatalf("Compact did not rewrite the journal (err %v)", err)
	}
	checkMode("Compact")
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("this is not a journal record\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rep, err := FsckJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repaired {
		t.Fatalf("fsck did not repair the damaged journal: %+v", rep)
	}
	checkMode("Repair")
}

// TestCheckpointCompactSkipsCleanJournal: Compact rewrites the journal only
// when it holds a line the rewrite would drop or re-encode. A journal of
// distinct appends is left alone, file and bytes; every kind of stale line
// forces a rewrite to exactly one v2 record per live key; and a clean
// journal still refuses Compact while results are queued.
func TestCheckpointCompactSkipsCleanJournal(t *testing.T) {
	defer failpoint.DisableAll()
	r1, r2, r3 := durabilityResult(1, 0.9), durabilityResult(2, 0.8), durabilityResult(3, 0.7)
	open := func(t *testing.T, path string) *Checkpoint {
		t.Helper()
		ck, err := OpenCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		return ck
	}
	appendAll := func(t *testing.T, ck *Checkpoint, results ...Result) {
		t.Helper()
		for _, res := range results {
			if err := ck.Append(res); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("clean", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "sweep.ckpt")
		ck := open(t, path)
		defer ck.Close()
		appendAll(t, ck, r1, r2, r3)
		before, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := os.ReadFile(path)
		if err := ck.Compact(); err != nil {
			t.Fatal(err)
		}
		after, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); !os.SameFile(before, after) || string(got) != string(data) {
			t.Fatal("Compact rewrote a journal with no stale lines")
		}
	})

	for _, tc := range []struct {
		name  string
		stale func(t *testing.T, path string) *Checkpoint // leaves 2 live keys
	}{
		{"superseding append", func(t *testing.T, path string) *Checkpoint {
			ck := open(t, path)
			appendAll(t, ck, r1, r2, durabilityResult(1, 0.5))
			return ck
		}},
		{"v1 line", func(t *testing.T, path string) *Checkpoint {
			// A bare JSON line is damage: its config re-runs and is
			// journaled again.
			var buf bytes.Buffer
			writeBareJSON(t, &buf, r1)
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			ck := open(t, path)
			appendAll(t, ck, r1, r2)
			return ck
		}},
		{"healed torn fragment", func(t *testing.T, path string) *Checkpoint {
			ck := open(t, path)
			appendAll(t, ck, r1, r2)
			if _, err := ck.f.Write([]byte(`r 1234 0badc0de`)); err != nil {
				t.Fatal(err)
			}
			ck.Close()
			return open(t, path)
		}},
		{"rewrite after failed fsync", func(t *testing.T, path string) *Checkpoint {
			ck := open(t, path)
			ck.SetSyncPolicy(0, 0)
			if err := failpoint.Enable("checkpoint.fsync=err@times=1"); err != nil {
				t.Fatal(err)
			}
			if err := ck.Append(r1); err == nil {
				t.Fatal("fsync failpoint did not surface an append error")
			}
			appendAll(t, ck, r2) // re-writes the queued r1 first
			return ck
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweep.ckpt")
			ck := tc.stale(t, path)
			defer ck.Close()
			before, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := ck.Compact(); err != nil {
				t.Fatal(err)
			}
			after, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if os.SameFile(before, after) {
				t.Fatal("Compact left a journal holding a stale line")
			}
			lines := journalLines(t, path)
			if len(lines) != 2 {
				t.Fatalf("compacted journal has %d lines, want 2:\n%s", len(lines), strings.Join(lines, "\n"))
			}
			for _, l := range lines {
				if !strings.HasPrefix(l, frameMagic) {
					t.Fatalf("compacted journal holds a non-v2 line: %q", l)
				}
			}
		})
	}

	t.Run("queued results refuse", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "sweep.ckpt")
		ck := open(t, path)
		defer ck.Close()
		appendAll(t, ck, r1)
		if err := failpoint.Enable("checkpoint.append.write=err(injected EIO)"); err != nil {
			t.Fatal(err)
		}
		defer failpoint.DisableAll()
		if err := ck.Append(r2); err == nil {
			t.Fatal("write failpoint did not surface an append error")
		}
		if err := ck.Compact(); err == nil || !strings.Contains(err.Error(), "degraded") {
			t.Fatalf("Compact with a queued result: err = %v, want degraded", err)
		}
	})
}

// TestCheckpointKeyedByScience: a journaled result may only satisfy a
// resume of the configuration that produced it. The same grid cell under a
// different duration or paper scale is different science and must re-run;
// the watchdog budgets and audit bit must not split the key. (Regression:
// the journal was once keyed by Config.ID, which omits the overrides, so a
// resume under a different -duration silently served wrong results.)
func TestCheckpointKeyedByScience(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	cfg := quick100M(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 2, 1, time.Second)
	if err := ck.Append(Result{Config: cfg.Normalize(), Jain: 1, Flows: 2}); err != nil {
		t.Fatal(err)
	}
	if _, ok := ck.Lookup(cfg.Key()); !ok {
		t.Fatal("identical config missing from journal")
	}
	longer := cfg
	longer.Duration = 2 * time.Second
	if _, ok := ck.Lookup(longer.Key()); ok {
		t.Error("a 2s resume was served the 1s result")
	}
	paper := cfg
	paper.PaperScale = true
	if _, ok := ck.Lookup(paper.Key()); ok {
		t.Error("a paper-scale resume was served the scaled result")
	}
	budgeted := cfg
	budgeted.Audit = true
	budgeted.MaxEvents = 1 << 40
	if _, ok := ck.Lookup(budgeted.Key()); !ok {
		t.Error("audit/watchdog toggles must not orphan journaled work")
	}
}

// TestCheckpointBrokenHandleFailsFast: once the post-compact reopen has
// failed, the old handle points at an unlinked inode — Append and Compact
// must return the sticky error instead of silently writing into the void.
func TestCheckpointBrokenHandleFailsFast(t *testing.T) {
	cfgs := hardeningConfigs(2)
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Append(Result{Config: cfgs[0].Normalize(), Jain: 1, Flows: 2}); err != nil {
		t.Fatal(err)
	}
	// Inject the state Compact leaves behind when the reopen fails.
	ck.mu.Lock()
	ck.err = errors.New("injected: compact reopen failed")
	ck.f.Close()
	ck.f = nil
	ck.mu.Unlock()
	if err := ck.Append(Result{Config: cfgs[1].Normalize(), Jain: 1, Flows: 2}); err == nil {
		t.Error("Append succeeded on a broken journal handle")
	}
	if err := ck.Compact(); err == nil {
		t.Error("Compact succeeded on a broken journal handle")
	}
	if err := ck.Close(); err == nil {
		t.Error("Close swallowed the sticky journal error")
	}
}

// TestCheckpointMemoryOnly: an empty path is the memory-only store. It
// creates no file, and Append, Lookup, Sync, Compact and Close all work on
// the index alone.
func TestCheckpointMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	ck, err := OpenCheckpoint("")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := hardeningConfigs(2)
	for _, cfg := range cfgs {
		if err := ck.Append(Result{Config: cfg.Normalize(), Jain: 1, Flows: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Append(Result{Config: cfgs[0].Normalize(), Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	if res, ok := ck.Lookup(cfgs[0].Key()); !ok || res.Errored() || ck.Len() != 2 {
		t.Fatalf("memory-only index: %d results, config 0 = %+v (%v)", ck.Len(), res, ok)
	}
	if err := ck.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := ck.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("memory-only store touched the disk: %v %v", entries, err)
	}
}

// TestCheckpointResultsSorted: Results must come back ordered by config ID
// regardless of append order, so compaction and cache loads are
// deterministic.
func TestCheckpointResultsSorted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	for _, seed := range []uint64{3, 1, 2} {
		cfg := quick100M(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 2, seed, 2*time.Second)
		if err := ck.Append(Result{Config: cfg.Normalize(), Jain: 1}); err != nil {
			t.Fatal(err)
		}
	}
	got := ck.Results()
	for i := 1; i < len(got); i++ {
		if got[i-1].Config.ID() >= got[i].Config.ID() {
			t.Fatalf("Results not sorted: %s >= %s", got[i-1].Config.ID(), got[i].Config.ID())
		}
	}
}

// encoderSet is the whole-set encoder WriteJSON was before it spliced
// per-result elements: the reference the splice writer must equal byte for
// byte.
func encoderSet(t *testing.T, rs *ResultSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(rs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// olderSchemaResult journals a graph-topology result whose PortResult
// record lacks "marked" (a field with no omitempty, as a record written
// before the field existed would), and returns the journal's index entry.
func olderSchemaResult(t *testing.T) *Entry {
	t.Helper()
	res := durabilityResult(7, 0.75)
	res.Groups = []GroupResult{{Name: "left", CCA: "cubic", Flows: 2, Bps: 4.5e7}}
	res.Ports = []PortResult{{Name: "bn<1>", RateBps: 1e8, TxBytes: 12345, Utilization: 0.9, Dropped: 3}}
	res.FCT = &FCTResult{Opened: 4, Completed: 3, Open: 1, Classes: []FCTClass{}}
	payload, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(payload, []byte(`"marked":0,`), nil, 1)
	if bytes.Equal(old, payload) {
		t.Fatalf("payload has no port \"marked\" key to drop: %s", payload)
	}
	line := fmt.Sprintf("%s\nr %d %08x %s %s\n",
		journalHeaderV2, len(old), crc32.ChecksumIEEE(old), res.Config.Key(), old)
	path := filepath.Join(t.TempDir(), "old.ckpt")
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	e, ok := ck.LookupEntry(res.Config.Key())
	if !ok {
		t.Fatalf("older-schema record not loaded: %+v", ck.Stats())
	}
	return e
}

// TestWriteJSONMatchesEncoder pins the one serializer: WriteJSON, and
// WriteSet over entries' elements (what sweepd serves), equal the former
// json.Encoder output byte for byte.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	rich, err := LoadFile("testdata/migration/cca_seed.json")
	if err != nil {
		t.Fatal(err)
	}
	errored := Result{Config: rich.Results[1].Config, Error: "runner: panic: boom <&>"}
	old := olderSchemaResult(t)
	for _, tc := range []struct {
		name string
		rs   ResultSet
	}{
		{"no note", ResultSet{Results: rich.Results}},
		{"html note", ResultSet{Note: `scaled <1/10> & "quoted"`, Results: rich.Results[:2]}},
		{"empty results", ResultSet{Note: "n", Results: []Result{}}},
		{"nil results", ResultSet{Note: "n"}},
		{"errored slot", ResultSet{Note: "n", Results: []Result{rich.Results[0], errored, rich.Results[2]}}},
		{"older-schema record", ResultSet{Note: "n", Results: []Result{old.Result}}},
	} {
		want := encoderSet(t, &tc.rs)
		var got bytes.Buffer
		if err := WriteJSON(&got, &tc.rs); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: WriteJSON differs from json.Encoder:\n--- got ---\n%s\n--- want ---\n%s", tc.name, got.Bytes(), want)
		}
		var elems [][]byte
		if tc.rs.Results != nil {
			elems = make([][]byte, len(tc.rs.Results))
		}
		for i, res := range tc.rs.Results {
			if elems[i], err = NewEntry(res).Element(); err != nil {
				t.Fatalf("%s: element %d: %v", tc.name, i, err)
			}
		}
		got.Reset()
		if err := WriteSet(&got, tc.rs.Note, elems); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: spliced entries differ from json.Encoder:\n--- got ---\n%s\n--- want ---\n%s", tc.name, got.Bytes(), want)
		}
	}
	if elem, err := old.Element(); err != nil || !bytes.Contains(elem, []byte(`"marked": 0`)) {
		t.Fatalf("older-schema element lacks the field its record lacked (err %v):\n%s", err, elem)
	}
}

// TestWriteJSONUnencodable: a result JSON cannot encode fails the whole set
// before a byte is written, naming its configuration.
func TestWriteJSONUnencodable(t *testing.T) {
	bad := durabilityResult(3, math.NaN())
	var buf bytes.Buffer
	err := WriteJSON(&buf, &ResultSet{Results: []Result{durabilityResult(1, 1), bad}})
	if err == nil || !strings.Contains(err.Error(), bad.Config.ID()) || buf.Len() != 0 {
		t.Fatalf("WriteJSON = %v with %d bytes written, want an error naming %s and no bytes", err, buf.Len(), bad.Config.ID())
	}
}

// TestCheckpointEntryEncodedOnce: an index entry encodes its element once,
// and a superseding Append indexes a new entry without touching the old
// one's bytes.
func TestCheckpointEntryEncodedOnce(t *testing.T) {
	ck, err := OpenCheckpoint(filepath.Join(t.TempDir(), "sweep.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	res := durabilityResult(1, 0.9)
	res.Wall = 111
	e, err := ck.AppendEntry(res)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := ck.LookupEntry(res.Config.Key()); !ok || got != e {
		t.Fatal("AppendEntry did not return the indexed entry")
	}
	// Concurrent fetches of one job race to encode its entries.
	var wg sync.WaitGroup
	elems := make([][]byte, 4)
	for i := range elems {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			elems[i], _ = e.Element()
		}(i)
	}
	wg.Wait()
	first, err := e.Element()
	if err != nil {
		t.Fatal(err)
	}
	for _, elem := range elems {
		if &elem[0] != &first[0] {
			t.Fatal("Element calls encoded the entry more than once")
		}
	}
	res.Wall = 222
	e2, err := ck.AppendEntry(res)
	if err != nil {
		t.Fatal(err)
	}
	if e2 == e {
		t.Fatal("superseding Append reused the old entry")
	}
	if again, _ := e.Element(); !bytes.Equal(again, first) || !bytes.Contains(again, []byte(`"wall_ns": 111`)) {
		t.Fatalf("old entry's bytes changed:\n%s", again)
	}
	if elem, _ := e2.Element(); !bytes.Contains(elem, []byte(`"wall_ns": 222`)) {
		t.Fatalf("new entry encodes the wrong result:\n%s", elem)
	}
	if e, err := ck.AppendEntry(Result{Config: res.Config, Error: "boom"}); e != nil || err != nil {
		t.Fatalf("errored AppendEntry = %v, %v; want nil, nil", e, err)
	}
}
