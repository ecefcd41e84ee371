package experiment

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/failpoint"
)

// writeFrame appends res to w as one framed journal record.
func writeFrame(t *testing.T, w *bytes.Buffer, res Result) {
	t.Helper()
	frame, _, err := encodeFrame(res)
	if err != nil {
		t.Fatal(err)
	}
	w.Write(frame)
}

// writeBareJSON appends res to w as a bare JSON line: no frame, no CRC.
func writeBareJSON(t *testing.T, w *bytes.Buffer, res Result) {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	w.Write(data)
	w.WriteByte('\n')
}

// TestJournalV2FlippedBitRecoversBothSides is the headline durability
// claim: flip any single bit anywhere in a v2 journal and reopening it
// recovers every record on both sides of the damage — at most the one
// record containing the flip is lost, the loss is always detected and
// counted, and the open never fails.
func TestJournalV2FlippedBitRecoversBothSides(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 7
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		res := durabilityResult(uint64(i+1), 0.9)
		keys[i] = res.Config.Key()
		if err := ck.Append(res); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(dir, "flipped.ckpt")
	for off := 0; off < len(orig); off++ {
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0x01
		if err := os.WriteFile(target, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenCheckpoint(target)
		if err != nil {
			t.Fatalf("flip at offset %d: open failed: %v", off, err)
		}
		lost := 0
		for _, key := range keys {
			if _, ok := re.Lookup(key); !ok {
				lost++
			}
		}
		st := re.Stats()
		re.Close()
		if lost > 1 {
			t.Fatalf("flip at offset %d lost %d records; damage must stay local to one record", off, lost)
		}
		if lost == 1 && st.Damaged()+st.Errored == 0 {
			t.Errorf("flip at offset %d lost a record without the loss being counted: %+v", off, st)
		}
	}
}

// TestJournalV1BadRegionLostSuffixV2Recovers proves the regression the
// resilient reader fixes. An unbroken corrupt region longer than the
// scanner token cap made the historical line-scanner loader (replicated
// inline below) abort the entire open — every record was lost, including
// the intact suffix after the damage and the intact prefix before it. The
// resilient reader skips the region in streaming chunks and recovers both
// sides.
func TestJournalV1BadRegionLostSuffixV2Recovers(t *testing.T) {
	buf := bytes.NewBufferString(journalHeaderV2 + "\n")
	const n = 6
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		res := durabilityResult(uint64(i+1), 0.9)
		keys[i] = res.Config.Key()
		if i == n/2 {
			buf.WriteString(strings.Repeat("x", maxJournalLine+2))
			buf.WriteByte('\n')
		}
		writeFrame(t, buf, res)
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// The historical loader: a line scanner capped at the same token size.
	scanStrict := func() error {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
		for sc.Scan() {
		}
		return sc.Err()
	}
	if err := scanStrict(); err == nil {
		t.Fatal("historical reader scanned the damaged journal; " +
			"expected it to abort (the failure mode the resilient reader exists to fix)")
	}

	re, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatalf("resilient reader failed on the damaged journal: %v", err)
	}
	defer re.Close()
	for i, key := range keys {
		if _, ok := re.Lookup(key); !ok {
			t.Fatalf("record %d lost (key %s); want every record on both sides of the bad region", i, key)
		}
	}
	if st := re.Stats(); st.Oversized != 1 || st.Records != n {
		t.Fatalf("stats = %+v, want Oversized=1 Records=%d", st, n)
	}
}

// TestJournalV1SilentCorruptionDetectedByV2: a flipped bit inside a JSON
// number leaves a bare-JSON (format v1) line perfectly parseable, so a
// reader that trusted such lines would serve wrong science without a
// trace. The reader trusts only CRC-framed records: the flipped bare line
// is refused as damage, and the same flip inside a frame fails its CRC.
func TestJournalV1SilentCorruptionDetectedByV2(t *testing.T) {
	res := durabilityResult(1, 0.9)
	key := res.Config.Key()
	payload, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.Index(payload, []byte(`"jain":0.9`))
	if idx < 0 {
		t.Fatalf("payload %s does not contain the jain field", payload)
	}
	flip := idx + len(`"jain":0.`)
	frame, _, err := encodeFrame(res)
	if err != nil {
		t.Fatal(err)
	}
	frameFlip := bytes.Index(frame, payload) + flip

	bare := append([]byte(nil), payload...)
	bare[flip] ^= 0x01 // '9' -> '8': still valid JSON, different science
	var probe Result
	if err := json.Unmarshal(bare, &probe); err != nil || probe.Jain == res.Jain {
		t.Fatalf("setup broken: the flipped line must decode to other science (err=%v jain=%v)", err, probe.Jain)
	}
	frame[frameFlip] ^= 0x01

	for name, line := range map[string][]byte{"bare JSON": append(bare, '\n'), "frame": frame} {
		path := filepath.Join(t.TempDir(), "sweep.ckpt")
		if err := os.WriteFile(path, append([]byte(journalHeaderV2+"\n"), line...), 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := OpenCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		_, ok := ck.Lookup(key)
		st := ck.Stats()
		ck.Close()
		if ok {
			t.Fatalf("%s: the flipped record was served", name)
		}
		if st.Corrupt != 1 || st.Records != 0 {
			t.Fatalf("%s: stats = %+v, want the flip counted as 1 corrupt line", name, st)
		}
	}
}

// TestJournalFusedRecordsRecoveredByResync: destroying the newline between
// two framed records fuses them onto one physical line; the reader must
// resynchronize mid-line and recover both.
func TestJournalFusedRecordsRecoveredByResync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := durabilityResult(1, 0.9), durabilityResult(2, 0.8)
	for _, res := range []Result{r1, r2} {
		if err := ck.Append(res); err != nil {
			t.Fatal(err)
		}
	}
	ck.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The last "\nr " boundary separates the two records (the first follows
	// the version header).
	idx := bytes.LastIndex(data[:len(data)-1], []byte("\nr "))
	if idx <= len(journalHeaderV2) {
		t.Fatalf("could not locate the record boundary in %q...", data[:40])
	}
	data[idx] = 'X'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, res := range []Result{r1, r2} {
		if _, ok := re.Lookup(res.Config.Key()); !ok {
			t.Fatalf("record %s lost to a fused line", res.Config.ID())
		}
	}
	if st := re.Stats(); st.Records != 2 || st.Corrupt != 1 {
		t.Fatalf("stats = %+v, want both records recovered and 1 corrupt region", st)
	}
}

// TestJournalKeyMismatchQuarantined: a CRC-valid record journaled under a
// science key that doesn't match its own payload is a writer-level
// inconsistency; the reader must quarantine it rather than trust either key.
func TestJournalKeyMismatchQuarantined(t *testing.T) {
	res := durabilityResult(1, 0.9)
	other := durabilityResult(2, 0.8)
	payload, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf("%s\nr %d %08x %s %s\n",
		journalHeaderV2, len(payload), crc32.ChecksumIEEE(payload), other.Config.Key(), payload)
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if ck.Len() != 0 {
		t.Fatalf("key-mismatched record was accepted (%d live)", ck.Len())
	}
	if st := ck.Stats(); st.KeyMismatch != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want KeyMismatch=1", st)
	}
}

// TestJournalNonFrameLinesAreDamage: apart from the exact version header,
// a line that is not a frame is damage — a stray '#' line and a bare JSON
// result alike. Each counts as Corrupt, makes fsck report the journal
// dirty, and is quarantined by a repair that leaves a clean journal of
// only the framed records.
func TestJournalNonFrameLinesAreDamage(t *testing.T) {
	r1, r2, r3 := durabilityResult(1, 0.9), durabilityResult(2, 0.8), durabilityResult(3, 0.7)
	buf := bytes.NewBufferString(journalHeaderV2 + "\n")
	writeFrame(t, buf, r1)
	buf.WriteString("#not a header, damaged region\n")
	writeBareJSON(t, buf, r2)
	writeFrame(t, buf, r3)
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := FsckJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if st := rep.Stats; !rep.Dirty() || st.Corrupt != 2 || st.Records != 2 || rep.Live != 2 {
		t.Fatalf("fsck: %+v, want dirty with 2 corrupt lines and 2 live records", rep)
	}
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ck.Lookup(r2.Config.Key()); ok {
		t.Fatal("a bare JSON line was served")
	}
	ck.Close()

	rep, err = FsckJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	qdata, err := os.ReadFile(rep.QuarantineFile)
	if err != nil {
		t.Fatal(err)
	}
	bare, _ := json.Marshal(r2)
	if !bytes.Contains(qdata, []byte("#not a header")) || !bytes.Contains(qdata, bare) {
		t.Fatalf("quarantine file misses a damaged line: %q", qdata)
	}
	rep, err = FsckJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dirty() || rep.Stats.Records != 2 || rep.Live != 2 {
		t.Fatalf("post-repair fsck: %+v, want 2 clean records", rep)
	}
}

// TestFsckJournalRepairs: fsck must report damage without touching the
// file, then (with repair) quarantine the damaged raw lines to a side file
// and compact the journal so a second pass finds it clean.
func TestFsckJournalRepairs(t *testing.T) {
	res := durabilityResult(1, 0.5)
	res.Utilization = 0.5
	superseded := res
	superseded.Utilization = 0.25
	mismatched := durabilityResult(3, 0.8)
	payload, err := json.Marshal(mismatched)
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.NewBufferString(journalHeaderV2 + "\n")
	writeFrame(t, buf, superseded)
	buf.WriteString("this is not a journal record\n")
	writeFrame(t, buf, res) // duplicate key: supersedes the first record
	fmt.Fprintf(buf, "r %d %08x %s %s\n",
		len(payload), crc32.ChecksumIEEE(payload), res.Config.Key(), payload)
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := FsckJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Dirty() || rep.Repaired {
		t.Fatalf("dry run: %+v, want dirty and untouched", rep)
	}
	st := rep.Stats
	if st.Records != 2 || st.Corrupt != 1 || st.KeyMismatch != 1 || st.Duplicates != 1 || rep.Live != 1 {
		t.Fatalf("fsck stats = %+v live %d, want 2 records / 1 corrupt / 1 key-mismatch / 1 duplicate / 1 live", st, rep.Live)
	}

	rep, err = FsckJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repaired || rep.QuarantineFile == "" {
		t.Fatalf("repair run: %+v", rep)
	}
	qdata, err := os.ReadFile(rep.QuarantineFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(qdata, []byte("this is not a journal record")) {
		t.Fatalf("quarantine file missing the corrupt line: %q", qdata)
	}

	rep, err = FsckJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dirty() || rep.Repaired || rep.Live != 1 {
		t.Fatalf("post-repair fsck: %+v, want clean", rep)
	}
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if got, ok := ck.Lookup(res.Config.Key()); !ok || got.Utilization != 0.5 {
		t.Fatalf("repair kept the wrong generation: %+v ok=%v", got, ok)
	}
}

// TestFsckJournalCountsUnkeptDamage: a load keeps at most maxDamagedBytes
// of damaged lines for quarantine, and counts the rest, so that with more
// damage than that the quarantined lines plus the counted ones still add
// up to every corrupt line, and the report says how many were not kept.
func TestFsckJournalCountsUnkeptDamage(t *testing.T) {
	const lines, width = 1500, 1000 // 1.5 MB of damage, past the 1 MiB cap
	buf := bytes.NewBufferString(journalHeaderV2 + "\n")
	writeFrame(t, buf, durabilityResult(1, 0.5))
	for i := 0; i < lines; i++ {
		line := fmt.Sprintf("damaged line %d ", i)
		buf.WriteString(line + strings.Repeat("x", width-len(line)) + "\n")
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := FsckJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Stats
	if st.Corrupt != lines || st.Unkept == 0 || rep.Live != 1 {
		t.Fatalf("fsck stats = %+v live %d, want %d corrupt, some unkept, 1 live", st, rep.Live, lines)
	}
	qdata, err := os.ReadFile(rep.QuarantineFile)
	if err != nil {
		t.Fatal(err)
	}
	if kept := bytes.Count(qdata, []byte("\n")); kept+st.Unkept != st.Corrupt {
		t.Fatalf("%d quarantined + %d unkept lines != %d corrupt", kept, st.Unkept, st.Corrupt)
	}
	if want := fmt.Sprintf("%d damaged line(s) past the quarantine cap", st.Unkept); !strings.Contains(rep.String(), want) {
		t.Fatalf("report %q does not say %q", rep.String(), want)
	}
}

// TestCheckpointFailpoints: injected short writes and fsync failures must
// be retryable — the journal heals the partial record, later appends land,
// and nothing valid is lost across a reopen.
func TestCheckpointFailpoints(t *testing.T) {
	defer failpoint.DisableAll()
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ck.SetSyncPolicy(0, 0)
	r1, r2, r3 := durabilityResult(1, 0.9), durabilityResult(2, 0.8), durabilityResult(3, 0.7)
	if err := ck.Append(r1); err != nil {
		t.Fatal(err)
	}

	// Short write: 10 bytes of the record land, then the disk "fails".
	if err := failpoint.Enable("checkpoint.append.write=short:10@times=1"); err != nil {
		t.Fatal(err)
	}
	if err := ck.Append(r2); err == nil {
		t.Fatal("short-write failpoint did not surface an append error")
	}
	// Retry after the disk recovers: the torn partial record must be
	// terminated so the records cannot fuse.
	if err := ck.Append(r2); err != nil {
		t.Fatalf("append after short write: %v", err)
	}

	// fsync failure: the record is written, the sync error is surfaced.
	if err := failpoint.Enable("checkpoint.fsync=err(injected EIO)@times=1"); err != nil {
		t.Fatal(err)
	}
	if err := ck.Append(r3); err == nil || !strings.Contains(err.Error(), "injected EIO") {
		t.Fatalf("fsync failpoint: err = %v", err)
	}
	if err := ck.Sync(); err != nil { // disarmed again: durability recovers
		t.Fatal(err)
	}
	ck.Close()

	re, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, res := range []Result{r1, r2, r3} {
		if _, ok := re.Lookup(res.Config.Key()); !ok {
			t.Fatalf("record %s lost across the failpoint storm", res.Config.ID())
		}
	}
	if st := re.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats = %+v, want exactly the torn 10-byte fragment counted corrupt", st)
	}
}
