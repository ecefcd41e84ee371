package experiment

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
)

func mustUnmarshalResult(data []byte) Result {
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		panic(err)
	}
	return res
}

// journalLine renders one framed checkpoint record (newline included) for
// a synthetic result.
func journalLine(t *testing.T, seed uint64, jain float64, errMsg string) []byte {
	t.Helper()
	frame, _, err := encodeFrame(Result{
		Config: quick100M(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 2, seed, time.Second).Normalize(),
		Jain:   jain,
		Error:  errMsg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestCheckpointLastWriteWins: when a journal carries several lines for the
// same config ID (a config re-run after a crash landed mid-sweep), Lookup
// must return the newest — the reload is a fold, not a first-match scan.
func TestCheckpointLastWriteWins(t *testing.T) {
	journal := bytes.NewBufferString(journalHeaderV2 + "\n")
	journal.Write(journalLine(t, 1, 0.111, ""))
	journal.Write(journalLine(t, 2, 0.5, ""))
	journal.Write(journalLine(t, 1, 0.999, "")) // same ID as line 1, newer

	path := filepath.Join(t.TempDir(), "ck.jsonl")
	if err := os.WriteFile(path, journal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if ck.Len() != 2 {
		t.Fatalf("journal with one duplicate loaded %d entries, want 2", ck.Len())
	}
	key := quick100M(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 2, 1, time.Second).Key()
	got, ok := ck.Lookup(key)
	if !ok {
		t.Fatalf("duplicated config %s missing after reload", key)
	}
	if got.Jain != 0.999 {
		t.Fatalf("Lookup returned Jain=%v, want the last write 0.999", got.Jain)
	}
}

// oracleLine is the reference decoder for one journal line, deliberately
// simpler than the real reader: it accepts exactly clean whole-line
// frames, and nothing else — bare JSON least of all. The real reader may
// additionally recover frames embedded in damaged lines (resync), so the
// oracle's accept set is a lower bound — the fuzz targets assert
// containment always and equality only when the reader reports a pristine
// file.
//
// Returns (result, accepted, ambiguous): ambiguous marks a line the oracle
// refuses to rule on (a non-frame line containing the frame magic, where
// the real reader's resync may legitimately see more than a line-based
// decoder can).
func oracleLine(line []byte) (Result, bool, bool) {
	var zero Result
	if bytes.HasPrefix(line, []byte("r ")) {
		if res, n, ok := oracleFrame(line); ok && n == len(line) {
			return res, true, false
		}
	}
	return zero, false, bytes.Contains(line, []byte("r "))
}

// oracleFrame strictly decodes "r <len> <crc8> <key16> <payload>" at the
// start of b, returning the consumed length.
func oracleFrame(b []byte) (Result, int, bool) {
	var zero Result
	rest := b[2:]
	sp := bytes.IndexByte(rest, ' ')
	if sp <= 0 || sp > 8 {
		return zero, 0, false
	}
	plen, err := strconv.Atoi(string(rest[:sp]))
	if err != nil || plen <= 0 {
		return zero, 0, false
	}
	rest = rest[sp+1:]
	if len(rest) < 26+plen || rest[8] != ' ' || rest[25] != ' ' {
		return zero, 0, false
	}
	crc, err := strconv.ParseUint(string(rest[:8]), 16, 32)
	if err != nil || crc32.ChecksumIEEE(rest[26:26+plen]) != uint32(crc) {
		return zero, 0, false
	}
	var res Result
	if json.Unmarshal(rest[26:26+plen], &res) != nil ||
		string(rest[9:25]) != res.Config.Key() || res.Errored() {
		return zero, 0, false
	}
	return res, 2 + sp + 1 + 26 + plen, true
}

// requireFramed fails t unless every result ck serves decodes from a
// CRC-valid frame somewhere in data: no line without a valid CRC — bare
// JSON included — is ever served.
func requireFramed(t *testing.T, ck *Checkpoint, data []byte) {
	t.Helper()
	framed := map[string]bool{}
	for i := 0; ; i++ {
		next := bytes.Index(data[i:], []byte("r "))
		if next < 0 {
			break
		}
		i += next
		if res, _, ok := oracleFrame(data[i:]); ok {
			j, _ := json.Marshal(res)
			framed[string(j)] = true
		}
	}
	for _, res := range ck.Results() {
		if j, _ := json.Marshal(res); !framed[string(j)] {
			t.Fatalf("served a result no CRC-valid frame carries: %s", j)
		}
	}
}

// journalOracle folds oracleLine over a whole journal image.
func journalOracle(data []byte) (want map[string][]byte, ambiguous int) {
	want = map[string][]byte{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		res, ok, amb := oracleLine(line)
		if amb {
			ambiguous++
		}
		if !ok {
			continue
		}
		j, _ := json.Marshal(res)
		want[res.Config.Key()] = j
	}
	return want, ambiguous
}

// FuzzCheckpointReload feeds arbitrary bytes to the checkpoint reader as a
// journal file — torn lines, duplicate IDs, interleaved garbage, partial
// JSON, bare JSON results and framed records — and checks OpenCheckpoint
// against the line-by-line oracle: every record the oracle accepts is
// recovered (exactly, when the reader saw no damage), nothing without a
// valid CRC is served, everything else is skipped without failing the
// open, and the reopened journal still accepts appends.
func FuzzCheckpointReload(f *testing.F) {
	// Build realistic seeds out of marshaled results: bare, they are the
	// damage the reader must refuse; framed, the records it must recover.
	mk := func(seed uint64, jain float64, errMsg string) []byte {
		res := Result{
			Config: quick100M(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 2, seed, time.Second).Normalize(),
			Jain:   jain,
			Error:  errMsg,
		}
		data, _ := json.Marshal(res)
		return data
	}
	valid := mk(1, 0.9, "")
	dup := mk(1, 0.4, "")
	errored := mk(2, 0, "panic: boom")
	f.Add([]byte{})
	f.Add([]byte("\n\n\n"))
	f.Add(valid)
	f.Add(append(append(append([]byte{}, valid...), '\n'), dup...))
	f.Add(append(append(append([]byte{}, valid...), '\n'), errored...))
	f.Add(append(append([]byte{}, valid...), valid[:len(valid)/2]...)) // torn tail
	f.Add([]byte("{\"config\":{}}\nnot json at all\n{\"jain\":"))
	f.Add([]byte("null\n{}\n[]\n42\n\"str\""))
	// The fsync-policy crash shape: a synced prefix of whole lines followed
	// by an unsynced tail torn mid-line (see
	// TestCheckpointSyncedPrefixSurvivesTornTail for the directed version).
	prefix := append(append(append([]byte{}, valid...), '\n'), errored...)
	prefix = append(prefix, '\n')
	f.Add(append(prefix, dup[:len(dup)/3]...))
	// Framed shapes: a clean journal, a frame followed by a bare line, and
	// a frame with a flipped payload bit (CRC must catch it).
	frame := func(data []byte) []byte {
		fr, _, err := encodeFrame(mustUnmarshalResult(data))
		if err != nil {
			f.Fatal(err)
		}
		return fr
	}
	header := []byte(journalHeaderV2 + "\n")
	f.Add(append(append([]byte{}, header...), frame(valid)...))
	f.Add(append(append(append([]byte{}, frame(valid)...), dup...), '\n'))
	flipped := append([]byte{}, frame(valid)...)
	flipped[len(flipped)/2] ^= 0x04
	f.Add(append(append([]byte{}, header...), flipped...))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ck.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := OpenCheckpoint(path)
		if err != nil {
			t.Fatalf("OpenCheckpoint rejected a journal it must tolerate: %v", err)
		}
		defer ck.Close()

		requireFramed(t, ck, data)
		want, ambiguous := journalOracle(data)
		st := ck.Stats()
		pristine := st.Damaged() == 0 && ambiguous == 0
		if pristine && ck.Len() != len(want) {
			t.Fatalf("pristine reload kept %d entries, oracle says %d", ck.Len(), len(want))
		}
		for id, wantJSON := range want {
			got, ok := ck.Lookup(id)
			if !ok {
				t.Fatalf("entry %q lost in reload", id)
			}
			if pristine {
				gotJSON, _ := json.Marshal(got)
				if !bytes.Equal(gotJSON, wantJSON) {
					t.Fatalf("entry %q: reload kept\n%s\noracle wants (last write)\n%s", id, gotJSON, wantJSON)
				}
			}
		}

		// The journal must remain appendable after swallowing garbage, and
		// the append must survive a reopen.
		fresh := Result{
			Config: quick100M(Pairing{cca.BBRv1, cca.Reno}, aqm.KindRED, 2, 77, time.Second).Normalize(),
			Jain:   0.777,
		}
		if err := ck.Append(fresh); err != nil {
			t.Fatalf("append after corrupt reload: %v", err)
		}
		ck.Close()
		ck2, err := OpenCheckpoint(path)
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer ck2.Close()
		if got, ok := ck2.Lookup(fresh.Config.Key()); !ok || got.Jain != 0.777 {
			t.Fatalf("appended result lost across reopen (ok=%v)", ok)
		}
	})
}

// FuzzJournalV2Reload attacks the CRC-framed decoder specifically —
// truncated headers, flipped bits, fused and interleaved frames, bare JSON
// lines among frames (the checked-in corpus under testdata/fuzz seeds
// these shapes)
// — and checks the recovery fixed point: whatever the resilient reader
// salvages, compacting and reloading yields byte-identical results from a
// journal that is now clean v2. Recovery loses nothing to re-encoding and
// never manufactures damage.
func FuzzJournalV2Reload(f *testing.F) {
	mk := func(seed uint64, jain float64, errMsg string) []byte {
		res := Result{
			Config: quick100M(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 2, seed, time.Second).Normalize(),
			Jain:   jain,
			Error:  errMsg,
		}
		data, _ := json.Marshal(res)
		return data
	}
	frame := func(data []byte) []byte {
		fr, _, err := encodeFrame(mustUnmarshalResult(data))
		if err != nil {
			f.Fatal(err)
		}
		return fr
	}
	a, b := mk(1, 0.9, ""), mk(2, 0.5, "")
	header := []byte(journalHeaderV2 + "\n")
	f.Add(append([]byte{}, header...))                               // header only
	f.Add([]byte(journalHeaderV2[:7]))                               // truncated header
	f.Add(append(append([]byte{}, header...), frame(a)...))          // one clean frame
	f.Add(append(append([]byte{}, frame(a)...), frame(b)...))        // two frames, no header
	f.Add(append(append([]byte{}, frame(a)...), b...))               // frame then torn bare JSON
	f.Add(append(append(append([]byte{}, a...), '\n'), frame(b)...)) // bare JSON then frame
	half := frame(a)
	f.Add(half[:len(half)/2]) // truncated frame
	fused := append(append([]byte{}, frame(a)...), frame(b)...)
	fused[len(frame(a))-1] = 'X' // newline destroyed: records fuse
	f.Add(fused)
	flip := append([]byte{}, frame(b)...)
	flip[len(flip)-4] ^= 0x20 // flipped bit in the payload
	f.Add(append(append([]byte{}, frame(a)...), flip...))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ck.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := OpenCheckpoint(path)
		if err != nil {
			t.Fatalf("OpenCheckpoint rejected a journal it must tolerate: %v", err)
		}
		requireFramed(t, ck, data)
		recovered, err := json.Marshal(ck.Results())
		if err != nil {
			t.Fatal(err)
		}
		want, ambiguous := journalOracle(data)
		if st := ck.Stats(); st.Damaged() == 0 && ambiguous == 0 && ck.Len() != len(want) {
			t.Fatalf("pristine reload kept %d entries, oracle says %d", ck.Len(), len(want))
		}
		for id := range want {
			if _, ok := ck.Lookup(id); !ok {
				t.Fatalf("entry %q lost in reload", id)
			}
		}
		if err := ck.Compact(); err != nil {
			t.Fatalf("compact of recovered journal: %v", err)
		}
		if err := ck.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenCheckpoint(path)
		if err != nil {
			t.Fatalf("reopen of compacted journal: %v", err)
		}
		defer re.Close()
		if st := re.Stats(); st.Damaged() != 0 || st.Duplicates != 0 {
			t.Fatalf("compacted journal is not clean v2: %+v", st)
		}
		reloaded, err := json.Marshal(re.Results())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(recovered, reloaded) {
			t.Fatalf("recovery is not a fixed point:\nfirst load: %s\nafter compact+reload: %s", recovered, reloaded)
		}
	})
}
