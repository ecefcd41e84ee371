package experiment

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
)

// Checkpoint journal format v2: every record is framed,
//
//	#tcpfair-journal v2
//	r <len> <crc32-ieee hex8> <science-key hex16> <json payload>
//
// The explicit payload length makes records self-delimiting, the CRC makes
// any bit flip detectable, and the science key — written by the producer,
// re-derived from the payload by the reader — proves key/result agreement
// end to end. The reader is a resynchronizing scanner: damage is skipped
// and quarantined per record (or per unbroken region), and every record
// whose CRC still proves it intact is recovered, including records after a
// bad region and records fused onto a damaged line by a destroyed newline.
// Only framed records are trusted: any other line but the header, bare
// JSON included, is damage.
const (
	journalHeaderV2 = "#tcpfair-journal v2"
	frameMagic      = "r "

	// maxJournalLine bounds a single physical line. Longer unbroken regions
	// are discarded in streaming chunks (never buffered whole) and counted
	// as Oversized.
	maxJournalLine = 1 << 24

	// maxDamagedBytes caps how much damaged raw data a load retains in
	// memory for fsck's quarantine side file.
	maxDamagedBytes = 1 << 20
)

var frameMagicBytes = []byte(frameMagic)

// JournalStats describes what a journal load saw.
type JournalStats struct {
	Records     int // CRC-framed records accepted (before dedup)
	Duplicates  int // accepted records superseded by another with the same key
	Errored     int // journaled errored results, skipped (they re-run)
	Corrupt     int // damaged regions: framing, CRC, or JSON failures
	KeyMismatch int // CRC-valid records whose stored key ≠ recomputed science key
	Oversized   int // unbroken regions longer than maxJournalLine, skipped wholesale
	Unkept      int // corrupt or key-mismatched lines past the maxDamagedBytes kept for quarantine
}

// Damaged reports how many regions or records the load had to drop for
// integrity reasons (excluding errored results, which are dropped by
// policy, and duplicates, which lose only redundancy).
func (s JournalStats) Damaged() int {
	return s.Corrupt + s.KeyMismatch + s.Oversized
}

// encodeFrame renders one result as a v2 journal record (trailing newline
// included) and returns it with the result's science key.
func encodeFrame(res Result) ([]byte, string, error) {
	payload, err := json.Marshal(res)
	if err != nil {
		return nil, "", fmt.Errorf("experiment: checkpoint encode: %w", err)
	}
	key := res.Config.Key()
	buf := make([]byte, 0, len(frameMagic)+32+len(key)+len(payload)+4)
	buf = append(buf, frameMagic...)
	buf = strconv.AppendInt(buf, int64(len(payload)), 10)
	buf = append(buf, ' ')
	buf = fmt.Appendf(buf, "%08x", crc32.ChecksumIEEE(payload))
	buf = append(buf, ' ')
	buf = append(buf, key...)
	buf = append(buf, ' ')
	buf = append(buf, payload...)
	buf = append(buf, '\n')
	return buf, key, nil
}

// readJournal streams every record of a journal from r, calling
// visit for each live result (in file order, so last write wins at the
// caller) and damaged (optional) with the raw bytes of each damaged line.
// Damage is never fatal; only a real read error aborts the load.
func readJournal(r io.Reader, st *JournalStats, visit func(key string, res Result), damaged func(line []byte)) error {
	br := bufio.NewReaderSize(r, 64<<10)
	buf := make([]byte, 0, 4<<10)
	for {
		buf = buf[:0]
		skipping := false
		var readErr error
		for {
			chunk, err := br.ReadSlice('\n')
			if !skipping {
				buf = append(buf, chunk...)
				if len(buf) > maxJournalLine {
					// The region can't be one legal record; stop buffering
					// and discard to the next newline in streaming chunks.
					skipping = true
					buf = buf[:0]
				}
			}
			if err == nil {
				break
			}
			if err == bufio.ErrBufferFull {
				continue
			}
			readErr = err
			break
		}
		if readErr != nil && readErr != io.EOF {
			return readErr
		}
		if skipping {
			st.Oversized++
		} else {
			line := buf
			if n := len(line); n > 0 && line[n-1] == '\n' {
				line = line[:n-1]
			}
			parseJournalLine(line, st, visit, damaged)
		}
		if readErr == io.EOF {
			return nil
		}
	}
}

// parseJournalLine classifies and decodes one physical line: the version
// header, one clean frame, or a damaged region possibly containing
// recoverable frames.
func parseJournalLine(line []byte, st *JournalStats, visit func(string, Result), damaged func([]byte)) {
	if len(line) == 0 || string(line) == journalHeaderV2 {
		return
	}
	// Scan for v2 frames anywhere in the line. A healthy line is exactly
	// one frame at offset 0; after corruption destroys framing (a flipped
	// length digit, a newline overwritten so two records fuse) the scan
	// resynchronizes on the next "r " and recovers every frame whose CRC
	// still proves it intact.
	frames, covered, pos := 0, 0, 0
	for pos < len(line) {
		idx := bytes.Index(line[pos:], frameMagicBytes)
		if idx < 0 {
			break
		}
		start := pos + idx
		n := parseFrame(line[start:], st, visit, damaged)
		if n == 0 {
			pos = start + 1 // no frame here; resync one byte on
			continue
		}
		frames++
		covered += n
		pos = start + n
	}
	if frames == 1 && covered == len(line) {
		return // one clean whole-line frame (already counted by parseFrame)
	}
	// Anything else is one corrupt region: a damaged line, perhaps with
	// valid frames embedded (recovered above), or a line that is no frame
	// at all — bare JSON and stray '#' lines included.
	st.Corrupt++
	if damaged != nil {
		damaged(line)
	}
}

// parseFrame decodes one v2 frame at the start of b, returning the number
// of bytes consumed (0 if b does not begin with a CRC-valid frame). A
// frame that passes the CRC but fails payload checks — undecodable JSON,
// science-key disagreement, an errored result — is consumed and counted,
// never re-scanned.
func parseFrame(b []byte, st *JournalStats, visit func(string, Result), damaged func([]byte)) int {
	if !bytes.HasPrefix(b, frameMagicBytes) {
		return 0
	}
	rest := b[len(frameMagic):]
	sp := bytes.IndexByte(rest, ' ')
	if sp <= 0 || sp > 8 {
		return 0
	}
	plen, err := strconv.Atoi(string(rest[:sp]))
	if err != nil || plen <= 0 || plen > maxJournalLine {
		return 0
	}
	rest = rest[sp+1:]
	// crc(8) + ' ' + key(16) + ' ' + payload(plen)
	if len(rest) < 8+1+16+1+plen || rest[8] != ' ' || rest[25] != ' ' {
		return 0
	}
	crc, err := strconv.ParseUint(string(rest[:8]), 16, 32)
	if err != nil {
		return 0
	}
	key := rest[9:25]
	payload := rest[26 : 26+plen]
	if crc32.ChecksumIEEE(payload) != uint32(crc) {
		return 0
	}
	consumed := len(frameMagic) + sp + 1 + 26 + plen
	var res Result
	if err := json.Unmarshal(payload, &res); err != nil {
		st.Corrupt++
		if damaged != nil {
			damaged(payload)
		}
		return consumed
	}
	if string(key) != res.Config.Key() {
		// The payload is intact but journaled under the wrong science
		// identity (writer bug or tampering): quarantine, don't trust.
		st.KeyMismatch++
		if damaged != nil {
			damaged(b[:consumed])
		}
		return consumed
	}
	if res.Errored() {
		st.Errored++
		return consumed
	}
	st.Records++
	visit(string(key), res)
	return consumed
}

// FsckReport summarizes a journal integrity scan.
type FsckReport struct {
	Path           string
	Stats          JournalStats
	Live           int    // distinct live results after last-write-wins dedup
	Dropped        int    // records/regions a repair drops from the journal
	Repaired       bool   // journal was rewritten as a compacted clean v2 file
	QuarantineFile string // side file holding damaged raw data, if any was saved
}

// Dirty reports whether the journal needs a repair pass: any damage, or
// redundant or errored records.
func (r FsckReport) Dirty() bool {
	s := r.Stats
	return s.Damaged() > 0 || s.Duplicates > 0 || s.Errored > 0
}

// String renders the report in sweepd's one-line-per-fact log style.
func (r FsckReport) String() string {
	s := r.Stats
	return fmt.Sprintf("%d records, %d live, %d duplicate, %d errored, %d corrupt, %d key-mismatched, %d oversized region(s), %d damaged line(s) past the quarantine cap",
		s.Records, r.Live, s.Duplicates, s.Errored, s.Corrupt, s.KeyMismatch, s.Oversized, s.Unkept)
}

// FsckJournal verifies the journal at path — per-record CRCs, duplicate-key
// consistency, science-key/result agreement — and, when repair is true and
// anything is wrong, quarantines damaged raw lines to path+".quarantined"
// and rewrites the journal as a compacted v2 file holding exactly the live
// results. sweepd -fsck and the boot-time integrity scan both use this.
func FsckJournal(path string, repair bool) (FsckReport, error) {
	ck, err := OpenCheckpoint(path)
	if err != nil {
		return FsckReport{Path: path}, err
	}
	defer ck.Close()
	rep := fsckReport(ck)
	if !repair || !rep.Dirty() {
		return rep, nil
	}
	qfile, err := ck.Repair()
	if err != nil {
		return rep, err
	}
	rep.Repaired = true
	rep.QuarantineFile = qfile
	return rep, nil
}

func fsckReport(ck *Checkpoint) FsckReport {
	st := ck.Stats()
	return FsckReport{
		Path:    ck.path,
		Stats:   st,
		Live:    ck.Len(),
		Dropped: st.Damaged() + st.Errored + st.Duplicates,
	}
}

// Repair quarantines the damaged raw lines retained at load (appending
// them to path+".quarantined", returned when written) and compacts the
// journal into a clean v2 snapshot of the live results. Damaged lines past
// the retention cap are dropped; Stats().Unkept counts them.
func (c *Checkpoint) Repair() (string, error) {
	c.mu.Lock()
	samples := c.damaged
	c.damaged = nil
	c.mu.Unlock()
	qfile := ""
	if len(samples) > 0 {
		qfile = c.path + ".quarantined"
		qf, err := os.OpenFile(qfile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return "", fmt.Errorf("experiment: checkpoint quarantine %s: %w", qfile, err)
		}
		for _, line := range samples {
			if _, err := qf.Write(append(line, '\n')); err != nil {
				qf.Close()
				return "", fmt.Errorf("experiment: checkpoint quarantine %s: %w", qfile, err)
			}
		}
		if err := qf.Close(); err != nil {
			return "", fmt.Errorf("experiment: checkpoint quarantine %s: %w", qfile, err)
		}
	}
	if err := c.Compact(); err != nil {
		return qfile, err
	}
	return qfile, nil
}
