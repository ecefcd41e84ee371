package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
)

// TestWriteJournalFuzzCorpus regenerates the checked-in seed corpus for
// FuzzJournalV2Reload when JOURNAL_CORPUS=1 — the corruption shapes the
// fuzzer must always start from: bare JSON lines (format v1, which the
// reader refuses as damage), truncated headers, and flipped-bit
// (CRC-failing) records.
func TestWriteJournalFuzzCorpus(t *testing.T) {
	if os.Getenv("JOURNAL_CORPUS") == "" {
		t.Skip("set JOURNAL_CORPUS=1 to regenerate the seed corpus")
	}
	mk := func(seed uint64, jain float64) []byte {
		res := Result{
			Config: quick100M(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 2, seed, time.Second).Normalize(),
			Jain:   jain,
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	frameOf := func(data []byte) []byte {
		fr, _, err := encodeFrame(mustUnmarshalResult(data))
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	v1a, v1b := mk(1, 0.9), mk(2, 0.5)
	flipped := frameOf(v1b)
	flipped[len(flipped)/2] ^= 0x01
	corpus := map[string][]byte{
		"v1-journal":       append(append(append([]byte{}, v1a...), '\n'), append(v1b, '\n')...),
		"truncated-header": []byte(journalHeaderV2[:9]),
		"flipped-bit-record": append(append(append([]byte(journalHeaderV2+"\n"), frameOf(v1a)...),
			flipped...), frameOf(v1a)...),
		"mixed-v1-v2": append(append(append([]byte(journalHeaderV2+"\n"), frameOf(v1a)...), v1b...), '\n'),
	}
	dir := "testdata/fuzz/FuzzJournalV2Reload"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range corpus {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(dir+"/"+name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
